// Lane-equivalence suite for the 64-lane bit-parallel engine: every lane
// of a BatchSimulator must match a scalar Simulator driven with that
// lane's stimulus net-for-net after every clock edge — over random
// netlists exercising all node kinds, over the generated MMMC circuit,
// and under per-lane fault injection.  Since the scalar Simulator is a
// one-lane view of the same engine, every lane is also checked against an
// independent walker over the Netlist graph itself.  Plus the campaign
// equivalence: a lane-parallel fault campaign reports fault-for-fault the
// same FaultCoverage as the sequential one; the compiled stream's layout
// (runs, latch groups, topological order); and the toggle counters: every
// ToggleCounts() equals an oracle that diffs full net snapshots bit by bit,
// and so does every toggle kernel this CPU supports, called directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <memory>
#include <random>
#include <vector>

#include "bignum/biguint.hpp"
#include "core/netlist_gen.hpp"
#include "rtl/batch_sim.hpp"
#include "rtl/compiled.hpp"
#include "rtl/components.hpp"
#include "rtl/fault.hpp"
#include "rtl/netlist.hpp"
#include "rtl/simulator.hpp"
#include "testutil.hpp"
#include "testutil_netlist.hpp"

namespace mont::rtl {
namespace {

using bignum::BigUInt;
constexpr std::size_t kLanes = BatchSimulator::kLanes;

// ---------------------------------------------------------------------------
// Random netlists
// ---------------------------------------------------------------------------

struct RandomNetlist {
  Netlist netlist;
  std::vector<NetId> inputs;    ///< every primary input, controls included
  std::vector<NetId> controls;  ///< the inputs shared as enables/resets
};

/// A random sequential netlist covering every node kind: a pool of inputs
/// and constants, a soup of random gates over earlier nets (acyclic by
/// construction), and DFFs with random enable/reset wired after the fact
/// so state feedback loops occur.  Most DFFs share their enable and reset
/// with others: two enable inputs, a gate gated by the first of them, and
/// one reset input — so a test that drives the controls to 0 holds whole
/// latch groups.
RandomNetlist BuildRandomNetlist(std::mt19937_64& rng, std::size_t n_inputs,
                                 std::size_t n_dffs, std::size_t n_gates) {
  RandomNetlist out;
  Netlist& nl = out.netlist;
  std::vector<NetId> pool = {nl.Const0(), nl.Const1()};
  for (std::size_t i = 0; i < n_inputs; ++i) {
    const NetId id = nl.AddInput(IndexedName("in", i));
    out.inputs.push_back(id);
    pool.push_back(id);
  }
  for (const char* name : {"en0", "en1", "rst0"}) {
    const NetId id = nl.AddInput(name);
    out.inputs.push_back(id);
    out.controls.push_back(id);
  }
  std::vector<NetId> dffs;
  for (std::size_t i = 0; i < n_dffs; ++i) {
    const NetId id = nl.Dff(nl.Const0());
    dffs.push_back(id);
    pool.push_back(id);
  }
  const auto pick = [&] { return pool[rng() % pool.size()]; };
  for (std::size_t i = 0; i < n_gates; ++i) {
    NetId id = kNoNet;
    switch (rng() % 10) {
      case 0: id = nl.Buf(pick()); break;
      case 1: id = nl.Not(pick()); break;
      case 2: id = nl.And(pick(), pick()); break;
      case 3: id = nl.Or(pick(), pick()); break;
      case 4: id = nl.Xor(pick(), pick()); break;
      case 5: id = nl.Nand(pick(), pick()); break;
      case 6: id = nl.Nor(pick(), pick()); break;
      case 7: id = nl.Xnor(pick(), pick()); break;
      default: id = nl.Mux(pick(), pick(), pick()); break;
    }
    pool.push_back(id);
  }
  const std::vector<NetId> enables = {out.controls[0], out.controls[1],
                                      nl.And(out.controls[0], pick())};
  const NetId shared_reset = out.controls[2];
  for (const NetId dff : dffs) {
    NetId enable = kNoNet;
    switch (rng() % 4) {
      case 0: break;
      case 1: enable = pick(); break;
      default: enable = enables[rng() % enables.size()]; break;
    }
    NetId reset = kNoNet;
    switch (rng() % 4) {
      case 0: reset = shared_reset; break;
      case 1: reset = pick(); break;
      default: break;
    }
    nl.RewireDff(dff, pick(), enable, reset);
  }
  return out;
}

/// Asserts lane `lane` of `batch` equals `scalar` on every net.
::testing::AssertionResult LaneMatches(const BatchSimulator& batch,
                                       const Simulator& scalar,
                                       const Netlist& nl, std::size_t lane) {
  for (NetId id = 0; id < nl.NodeCount(); ++id) {
    const bool b = ((batch.Peek(id) >> lane) & 1u) != 0;
    const bool s = scalar.Peek(id);
    if (b != s) {
      return ::testing::AssertionFailure()
             << "lane " << lane << " diverged on net " << nl.NetName(id)
             << " (" << OpName(nl.NodeAt(id).op) << "): batch=" << b
             << " scalar=" << s;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(BatchLaneEquivalence, RandomNetlistsMatchScalarEveryCycleEveryLane) {
  std::mt19937_64 rng(mont::test::TestSeed());
  for (int trial = 0; trial < 4; ++trial) {
    RandomNetlist rn = BuildRandomNetlist(rng, /*n_inputs=*/6, /*n_dffs=*/5,
                                          /*n_gates=*/60);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const CompiledNetlist compiled(rn.netlist);
    BatchSimulator batch(compiled);
    std::vector<std::unique_ptr<Simulator>> scalars;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      scalars.push_back(std::make_unique<Simulator>(rn.netlist));
    }
    for (int cycle = 0; cycle < 24; ++cycle) {
      for (const NetId input : rn.inputs) {
        const std::uint64_t word = rng();
        batch.SetInput(input, word);
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          scalars[lane]->SetInput(input, ((word >> lane) & 1u) != 0);
        }
      }
      // Alternate pure settles and clock edges so both paths are compared.
      if (cycle % 3 == 0) {
        batch.Settle();
        for (auto& s : scalars) s->Settle();
      } else {
        batch.Tick();
        for (auto& s : scalars) s->Tick();
      }
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        ASSERT_TRUE(LaneMatches(batch, *scalars[lane], rn.netlist, lane))
            << "cycle " << cycle;
      }
    }
  }
}

TEST(BatchLaneEquivalence, MmmcNetlistMatchesScalarNetForNet) {
  const std::size_t l = 6;
  auto brng = mont::test::TestRng();
  const BigUInt n = brng.OddExactBits(l);
  const BigUInt two_n = n << 1;
  const auto gen = core::BuildMmmcNetlist(l);

  std::vector<BigUInt> xs, ys;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    xs.push_back(brng.Below(two_n));
    ys.push_back(brng.Below(two_n));
  }

  // Batch: all 64 operand pairs at once.
  mont::test::BatchMmmcNetlistDriver batch_drv(gen);
  batch_drv.LoadModulus(n);
  // Scalar: one simulator per lane, identical schedule.
  std::vector<std::unique_ptr<Simulator>> scalars;
  std::vector<std::unique_ptr<mont::test::MmmcNetlistDriver>> drivers;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    scalars.push_back(std::make_unique<Simulator>(*gen.netlist));
    drivers.push_back(
        std::make_unique<mont::test::MmmcNetlistDriver>(gen, *scalars[lane]));
    drivers[lane]->LoadModulus(n);
    mont::test::SetBus(*scalars[lane], gen.x_in, xs[lane]);
    mont::test::SetBus(*scalars[lane], gen.y_in, ys[lane]);
    scalars[lane]->SetInput(gen.start, true);
    scalars[lane]->Tick();
    scalars[lane]->SetInput(gen.start, false);
  }
  batch_drv.Start(xs, ys);

  for (std::uint64_t cycle = 1; cycle <= 3 * l + 5; ++cycle) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      ASSERT_TRUE(
          LaneMatches(batch_drv.sim(), *scalars[lane], *gen.netlist, lane))
          << "cycle " << cycle;
    }
    batch_drv.Tick();
    for (auto& s : scalars) s->Tick();
  }
}

// ---------------------------------------------------------------------------
// Per-lane faults
// ---------------------------------------------------------------------------

TEST(BatchFaults, LanesAreIsolated) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId g = nl.And(a, b);
  const NetId out = nl.Or(g, nl.Const0());
  BatchSimulator sim(nl);
  sim.SetInputAll(a, true);
  sim.SetInputAll(b, true);
  sim.InjectFault(g, FaultType::kStuckAt0, 1ull << 3);
  sim.InjectFault(g, FaultType::kInvert, 1ull << 7);  // 1 -> 0 as well
  sim.Settle();
  EXPECT_EQ(sim.Peek(out), ~((1ull << 3) | (1ull << 7)))
      << "only the faulted lanes may observe the fault";
  sim.ClearFaults();
  sim.Settle();
  EXPECT_EQ(sim.Peek(out), BatchSimulator::kAllLanes);
}

TEST(BatchFaults, LastFaultPerLaneWins) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId buf = nl.Buf(a);
  BatchSimulator sim(nl);
  sim.SetInputAll(a, false);
  sim.InjectFault(buf, FaultType::kStuckAt0);                  // all lanes
  sim.InjectFault(buf, FaultType::kStuckAt1, 1ull << 5);      // retarget lane
  EXPECT_EQ(sim.Peek(buf), 1ull << 5);
  EXPECT_EQ(sim.ActiveFaults(), 1u) << "same net, one entry";
}

TEST(BatchFaults, FaultedDffStateMatchesScalarPerLane) {
  // q <= NOT q toggler with a stuck-at fault on the DFF in one lane only.
  Netlist nl;
  const NetId dff = nl.Dff(nl.Const0());
  const NetId inv = nl.Not(dff);
  nl.RewireDff(dff, inv);
  BatchSimulator batch(nl);
  Simulator healthy(nl), faulty(nl);
  batch.InjectFault(dff, FaultType::kStuckAt1, 1ull << 9);
  faulty.InjectFault(dff, FaultType::kStuckAt1);
  for (int cycle = 0; cycle < 6; ++cycle) {
    EXPECT_EQ(batch.PeekLane(dff, 0), healthy.Peek(dff)) << "cycle " << cycle;
    EXPECT_EQ(batch.PeekLane(dff, 9), faulty.Peek(dff)) << "cycle " << cycle;
    batch.Tick();
    healthy.Tick();
    faulty.Tick();
  }
}

// ---------------------------------------------------------------------------
// An independent evaluation oracle
// ---------------------------------------------------------------------------

/// One lane of the circuit evaluated straight from the netlist: one bool
/// per net, Netlist::TopoOrder() and NodeAt(), no compiled form.  Faults
/// follow the engine's contract: the override (stuck-at-0/1 or invert)
/// applies to the net's value wherever it is read, and a faulted
/// flip-flop keeps its un-faulted state, which is what its hold path
/// recirculates.
class ReferenceLane {
 public:
  explicit ReferenceLane(const Netlist& nl)
      : nl_(nl), value_(nl.NodeCount()), raw_(nl.NodeCount()) {
    for (NetId id = 0; id < nl.NodeCount(); ++id) {
      raw_[id] = nl.NodeAt(id).op == Op::kConst1;
    }
  }

  void SetInput(NetId input, bool value) { raw_[input] = value; }
  /// The last fault injected on a net wins.
  void InjectFault(NetId net, FaultType type) { faults_[net] = type; }
  bool Value(NetId net) const { return value_[net]; }

  void Settle() {
    for (NetId id = 0; id < nl_.NodeCount(); ++id) {
      if (!IsCombinational(nl_.NodeAt(id).op)) {
        value_[id] = Faulted(id, raw_[id]);
      }
    }
    for (const NetId id : nl_.TopoOrder()) {
      const Node& node = nl_.NodeAt(id);
      const bool a = Read(node.a), b = Read(node.b), c = Read(node.c);
      bool out = false;
      switch (node.op) {
        case Op::kBuf: out = a; break;
        case Op::kNot: out = !a; break;
        case Op::kAnd: out = a && b; break;
        case Op::kOr: out = a || b; break;
        case Op::kXor: out = a != b; break;
        case Op::kNand: out = !(a && b); break;
        case Op::kNor: out = !(a || b); break;
        case Op::kXnor: out = a == b; break;
        case Op::kMux: out = a ? c : b; break;
        default: ADD_FAILURE() << "source node in TopoOrder"; break;
      }
      value_[id] = Faulted(id, out);
    }
  }

  /// Settle, latch every flip-flop at once, settle again.
  void Tick() {
    Settle();
    std::vector<bool> next = raw_;
    for (NetId id = 0; id < nl_.NodeCount(); ++id) {
      const Node& node = nl_.NodeAt(id);
      if (node.op != Op::kDff) continue;
      const bool q = raw_[id];
      const bool d = node.a == kNoNet || node.a == id ? q : value_[node.a];
      const bool enable = node.b == kNoNet || value_[node.b];
      const bool reset = node.c != kNoNet && value_[node.c];
      next[id] = !reset && (enable ? d : q);
    }
    raw_ = std::move(next);
    Settle();
  }

 private:
  /// An absent operand reads 0.
  bool Read(NetId net) const { return net != kNoNet && value_[net]; }
  bool Faulted(NetId net, bool v) const {
    const auto it = faults_.find(net);
    if (it == faults_.end()) return v;
    switch (it->second) {
      case FaultType::kStuckAt0: return false;
      case FaultType::kStuckAt1: return true;
      case FaultType::kInvert: return !v;
    }
    return v;
  }

  const Netlist& nl_;
  std::vector<bool> value_;
  std::vector<bool> raw_;  ///< un-faulted value of every source net
  std::map<NetId, FaultType> faults_;
};

/// Faults the oracle run must cover: gates strictly inside a run of the
/// compiled stream (neither its first nor its last instruction), and
/// flip-flops of latch groups clocked only by the held controls — plus a
/// few random nets.  Each lands on random lanes with a random type.
std::vector<BatchSimulator::LaneFault> OracleFaults(
    const CompiledNetlist& compiled, const RandomNetlist& rn,
    std::mt19937_64& rng, std::size_t* mid_run, std::size_t* held_dff) {
  const auto held = [&](std::uint32_t slot) {
    return slot == compiled.ZeroSlot() ||
           std::find(rn.controls.begin(), rn.controls.end(), slot) !=
               rn.controls.end();
  };
  std::vector<BatchSimulator::LaneFault> faults;
  const auto add = [&](NetId net) {
    faults.push_back({net, static_cast<FaultType>(rng() % 3), rng()});
  };
  for (const CompiledNetlist::Run& run : compiled.Runs()) {
    if (run.end - run.begin < 3) continue;
    const std::uint32_t inner =
        run.begin + 1 + rng() % (run.end - run.begin - 2);
    add(compiled.OutStream()[inner]);
    ++*mid_run;
  }
  for (const CompiledNetlist::LatchGroup& group : compiled.LatchGroups()) {
    if (!held(group.enable) || !held(group.reset) || *held_dff >= 4) continue;
    add(compiled.Dffs()[group.begin + rng() % (group.end - group.begin)].q);
    ++*held_dff;
  }
  for (int i = 0; i < 4; ++i) {
    add(static_cast<NetId>(rng() % rn.netlist.NodeCount()));
  }
  return faults;
}

// Every lane of the engine against the walker, net for net after every
// edge, with per-lane faults on gates inside runs and on flip-flops of
// held latch groups.  The shared enable/reset inputs sit at 0 for
// stretches of edges, so whole latch groups skip their clocking.
TEST(BatchOracle, EveryLaneMatchesReferenceWalkerAfterEveryEdge) {
  std::mt19937_64 rng(mont::test::TestSeed());
  std::size_t held_group_edges = 0;
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const RandomNetlist rn = BuildRandomNetlist(rng, /*n_inputs=*/6,
                                                /*n_dffs=*/40, /*n_gates=*/150);
    const CompiledNetlist compiled(rn.netlist);
    BatchSimulator batch(compiled);
    std::vector<ReferenceLane> lanes(kLanes, ReferenceLane(rn.netlist));
    for (ReferenceLane& lane : lanes) lane.Settle();

    std::size_t mid_run = 0, held_dff = 0;
    const auto faults = OracleFaults(compiled, rn, rng, &mid_run, &held_dff);
    ASSERT_GT(mid_run, 0u) << "no run long enough to fault inside";
    ASSERT_GT(held_dff, 0u) << "no latch group clocked by the controls";
    batch.InjectFaults(faults);
    for (const BatchSimulator::LaneFault& fault : faults) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if ((fault.lanes >> lane) & 1u) {
          lanes[lane].InjectFault(fault.net, fault.type);
        }
      }
    }
    for (ReferenceLane& lane : lanes) lane.Settle();

    for (int edge = 0; edge < 48; ++edge) {
      const bool hold = (edge / 8) % 2 == 1;
      for (const NetId input : rn.inputs) {
        const bool control = std::find(rn.controls.begin(), rn.controls.end(),
                                       input) != rn.controls.end();
        const std::uint64_t word = hold && control ? 0 : rng();
        batch.SetInput(input, word);
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          lanes[lane].SetInput(input, ((word >> lane) & 1u) != 0);
        }
      }
      batch.Settle();
      for (const CompiledNetlist::LatchGroup& group : compiled.LatchGroups()) {
        if ((batch.Peek(group.enable) | batch.Peek(group.reset)) == 0) {
          ++held_group_edges;
        }
      }
      batch.Tick();
      for (ReferenceLane& lane : lanes) lane.Tick();
      for (NetId id = 0; id < rn.netlist.NodeCount(); ++id) {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          ASSERT_EQ(((batch.Peek(id) >> lane) & 1u) != 0, lanes[lane].Value(id))
              << "edge " << edge << " lane " << lane << " net "
              << rn.netlist.NetName(id) << " ("
              << OpName(rn.netlist.NodeAt(id).op) << ")";
        }
      }
    }
  }
  EXPECT_GT(held_group_edges, 0u) << "the latch-group skip never ran";
}

// ---------------------------------------------------------------------------
// Campaign equivalence: lane-parallel == sequential, fault for fault
// ---------------------------------------------------------------------------

void ExpectSameCoverage(const FaultCoverage& sequential,
                        const FaultCoverage& batch) {
  EXPECT_EQ(sequential.injected, batch.injected);
  EXPECT_EQ(sequential.detected, batch.detected);
  ASSERT_EQ(sequential.results.size(), batch.results.size());
  for (std::size_t i = 0; i < sequential.results.size(); ++i) {
    EXPECT_EQ(sequential.results[i].net, batch.results[i].net) << i;
    EXPECT_EQ(sequential.results[i].type, batch.results[i].type) << i;
    EXPECT_EQ(sequential.results[i].detected, batch.results[i].detected)
        << "fault " << i << ": net " << sequential.results[i].net << " "
        << FaultTypeName(sequential.results[i].type);
  }
}

TEST(BatchCampaign, AdderCampaignMatchesSequential) {
  Netlist nl;
  const Bus a = InputBus(nl, "a", 4);
  const Bus b = InputBus(nl, "b", 4);
  const Bus sum = RippleCarryAdder(nl, a, b);
  // Every net in the circuit, all three fault models.
  std::vector<NetId> targets;
  for (NetId id = 0; id < nl.NodeCount(); ++id) targets.push_back(id);
  const std::vector<FaultType> types = {
      FaultType::kStuckAt0, FaultType::kStuckAt1, FaultType::kInvert};

  const auto scalar_workload = [&](Simulator& sim) {
    for (std::uint64_t va = 0; va < 16; ++va) {
      for (std::uint64_t vb = 0; vb < 16; ++vb) {
        mont::test::SetBus(sim, a, va);
        mont::test::SetBus(sim, b, vb);
        sim.Settle();
        if (sim.PeekBus(sum) != va + vb) return true;
      }
    }
    return false;
  };
  const auto batch_workload = [&](BatchSimulator& sim) {
    std::uint64_t detected = 0;
    for (std::uint64_t va = 0; va < 16; ++va) {
      for (std::uint64_t vb = 0; vb < 16; ++vb) {
        for (std::size_t i = 0; i < 4; ++i) {
          sim.SetInputAll(a[i], ((va >> i) & 1u) != 0);
          sim.SetInputAll(b[i], ((vb >> i) & 1u) != 0);
        }
        sim.Settle();
        // A lane detects the fault if any sum bit is wrong in that lane.
        for (std::size_t i = 0; i < sum.size(); ++i) {
          const std::uint64_t expect_bit =
              (((va + vb) >> i) & 1u) != 0 ? BatchSimulator::kAllLanes : 0;
          detected |= sim.Peek(sum[i]) ^ expect_bit;
        }
      }
    }
    return detected;
  };

  ExpectSameCoverage(RunFaultCampaign(nl, targets, types, scalar_workload),
                     RunFaultCampaignBatch(nl, targets, types, batch_workload));
}

TEST(BatchCampaign, MmmcCampaignMatchesSequential) {
  const std::size_t l = 4;
  auto brng = mont::test::TestRng();
  const BigUInt n = brng.OddExactBits(l);
  const BigUInt two_n = n << 1;
  const BigUInt x = brng.Below(two_n), y = brng.Below(two_n);
  const auto gen = core::BuildMmmcNetlist(l);

  // Fault-free expectation, from the very engine under test.
  mont::test::MmmcNetlistDriver golden(gen);
  golden.LoadModulus(n);
  BigUInt expect;
  ASSERT_TRUE(golden.TryMultiply(x, y, &expect));

  const std::uint64_t kMaxCycles = 8 * (l + 4);
  const auto scalar_workload = [&](Simulator& sim) {
    mont::test::MmmcNetlistDriver drv(gen, sim);
    drv.LoadModulus(n);
    BigUInt got;
    std::uint64_t cycles = 0;
    if (!drv.TryMultiply(x, y, &got, &cycles, kMaxCycles)) return true;
    if (cycles != 3 * l + 4) return true;
    return got != expect;
  };
  const auto batch_workload = [&](BatchSimulator& sim) {
    return mont::test::DetectMmmcFaultLanes(sim, gen, n, x, y, expect,
                                            kMaxCycles);
  };

  // Deterministic sample of the netlist, all three models.
  std::vector<NetId> targets;
  for (NetId id = 2; id < gen.netlist->NodeCount(); id += 3) {
    targets.push_back(id);
  }
  const std::vector<FaultType> types = {
      FaultType::kStuckAt0, FaultType::kStuckAt1, FaultType::kInvert};
  const FaultCoverage sequential =
      RunFaultCampaign(*gen.netlist, targets, types, scalar_workload);
  const FaultCoverage batch =
      RunFaultCampaignBatch(*gen.netlist, targets, types, batch_workload);
  ExpectSameCoverage(sequential, batch);
  EXPECT_GT(batch.injected, 100u);
}

// ---------------------------------------------------------------------------
// Wide/bus peeks and argument checking
// ---------------------------------------------------------------------------

TEST(BatchSim, PeekBusRejectsWideBusesAndBadLanes) {
  Netlist nl;
  const Bus wide = InputBus(nl, "w", 65);
  BatchSimulator sim(nl);
  EXPECT_THROW(sim.PeekBus(wide, 0), std::invalid_argument);
  EXPECT_THROW(sim.PeekBus({wide[0]}, kLanes), std::out_of_range);
  EXPECT_THROW(sim.SetInputLane(wide[0], kLanes, true), std::out_of_range);
  EXPECT_NO_THROW(sim.PeekWide(wide, 0));
}

TEST(BatchSim, PeekWideRoundTripsWideValues) {
  auto brng = mont::test::TestRng();
  Netlist nl;
  const Bus in = InputBus(nl, "w", 100);
  Bus regs;
  for (const NetId net : in) regs.push_back(nl.Dff(net));
  BatchSimulator sim(nl);
  std::vector<BigUInt> values;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    values.push_back(brng.ExactBits(100));
    mont::test::SetBusLane(sim, in, lane, values[lane]);
  }
  sim.Tick();
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(sim.PeekWide(regs, lane), values[lane]) << "lane " << lane;
    EXPECT_EQ(sim.PeekWide(in, lane), values[lane]) << "lane " << lane;
  }
}

TEST(BatchSim, WideLaneBusIoMatchesPerLaneReads) {
  auto brng = mont::test::TestRng();
  Netlist nl;
  const Bus in = InputBus(nl, "w", 100);
  BatchSimulator sim(nl);
  std::vector<BigUInt> values;
  for (std::size_t lane = 0; lane < 37; ++lane) {
    values.push_back(brng.ExactBits(lane == 5 ? 130 : 100));
  }
  sim.SetInputWideLanes(in, values);
  const std::vector<BigUInt> all = sim.PeekWideLanes(in, kLanes);
  ASSERT_EQ(all.size(), kLanes);
  const BigUInt bus_span = BigUInt::PowerOfTwo(100);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const BigUInt expect = lane < values.size() ? values[lane] % bus_span : 0;
    EXPECT_EQ(all[lane], expect) << "lane " << lane;
    EXPECT_EQ(sim.PeekWide(in, lane), expect) << "lane " << lane;
  }
  EXPECT_EQ(sim.PeekWideLanes(in, 3).size(), 3u);
  EXPECT_TRUE(sim.PeekWideLanes(in, 0).empty());
  EXPECT_THROW(sim.PeekWideLanes(in, kLanes + 1), std::out_of_range);
  const std::vector<BigUInt> too_many(kLanes + 1, BigUInt{1});
  EXPECT_THROW(sim.SetInputWideLanes(in, too_many), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Compiled stream layout
// ---------------------------------------------------------------------------

/// Runs tile the stream in order, each holds one op, and no instruction
/// reads a net computed at or after the start of its own run; latch groups
/// tile Dffs() in strictly increasing (enable, reset) order.
void CheckCompiledLayout(const Netlist& nl) {
  const CompiledNetlist compiled(nl);
  std::uint32_t at = 0;
  for (const CompiledNetlist::Run& run : compiled.Runs()) {
    ASSERT_EQ(run.begin, at);
    ASSERT_LT(run.begin, run.end);
    for (std::uint32_t i = run.begin; i < run.end; ++i) {
      const NetId out = compiled.OutStream()[i];
      ASSERT_EQ(nl.NodeAt(out).op, run.op) << "instruction " << i;
      ASSERT_EQ(compiled.InstructionOf(out), i);
      for (const auto* stream :
           {&compiled.AStream(), &compiled.BStream(), &compiled.CStream()}) {
        const std::uint32_t src = (*stream)[i];
        if (!compiled.ValidNet(src)) continue;
        const std::uint32_t producer = compiled.InstructionOf(src);
        if (producer != CompiledNetlist::kNoInstruction) {
          ASSERT_LT(producer, run.begin) << "instruction " << i;
        }
      }
    }
    at = run.end;
  }
  EXPECT_EQ(at, compiled.InstructionCount());

  at = 0;
  const CompiledNetlist::LatchGroup* previous = nullptr;
  for (const CompiledNetlist::LatchGroup& group : compiled.LatchGroups()) {
    ASSERT_EQ(group.begin, at);
    ASSERT_LT(group.begin, group.end);
    if (previous != nullptr) {
      ASSERT_LT(std::pair(previous->enable, previous->reset),
                std::pair(group.enable, group.reset));
    }
    for (std::uint32_t i = group.begin; i < group.end; ++i) {
      const CompiledNetlist::Dff& dff = compiled.Dffs()[i];
      ASSERT_EQ(dff.enable, group.enable);
      ASSERT_EQ(dff.reset, group.reset);
      ASSERT_EQ(compiled.DffIndexOf(dff.q), i);
    }
    previous = &group;
    at = group.end;
  }
  EXPECT_EQ(at, compiled.Dffs().size());
}

TEST(CompiledStream, RunsAndLatchGroupsTileTheirStreams) {
  std::mt19937_64 rng(mont::test::TestSeed());
  for (int trial = 0; trial < 4; ++trial) {
    CheckCompiledLayout(BuildRandomNetlist(rng, 6, 30, 200).netlist);
  }
  CheckCompiledLayout(*core::BuildMmmcNetlist(8).netlist);
  CheckCompiledLayout(*core::BuildMmmcNetlist(16, /*dual_field=*/true).netlist);
}

// The 64-bit MMMC: ordering by (level, op) turns the 661 single-op
// stretches of plain topological order into 22 runs, and its 653
// flip-flops share 70 (enable, reset) pairs.
TEST(CompiledStream, Mmmc64HasFewRunsAndLatchGroups) {
  const auto gen = core::BuildMmmcNetlist(64);
  const CompiledNetlist compiled(*gen.netlist);
  std::size_t stretches = 1;
  const std::vector<NetId>& topo = gen.netlist->TopoOrder();
  for (std::size_t i = 1; i < topo.size(); ++i) {
    stretches += gen.netlist->NodeAt(topo[i]).op !=
                 gen.netlist->NodeAt(topo[i - 1]).op;
  }
  EXPECT_LT(compiled.Runs().size() * 20, stretches)
      << compiled.Runs().size() << " runs, " << stretches << " stretches";
  EXPECT_LT(compiled.LatchGroups().size() * 8, compiled.Dffs().size())
      << compiled.LatchGroups().size() << " groups";
}

/// Kahn's algorithm with one fanout vector per node — the reference
/// TopoOrder() must reproduce exactly, since technology mapping, timing
/// and taint analysis iterate its order.
std::vector<NetId> ReferenceTopoOrder(const Netlist& nl) {
  std::vector<std::uint8_t> pending(nl.NodeCount(), 0);
  std::vector<std::vector<NetId>> fanout(nl.NodeCount());
  std::vector<NetId> ready, order;
  for (NetId id = 0; id < nl.NodeCount(); ++id) {
    const Node& node = nl.NodeAt(id);
    if (!IsCombinational(node.op)) continue;
    int deps = 0;
    for (const NetId src : {node.a, node.b, node.c}) {
      if (src == kNoNet || !IsCombinational(nl.NodeAt(src).op)) continue;
      fanout[src].push_back(id);
      ++deps;
    }
    pending[id] = static_cast<std::uint8_t>(deps);
    if (deps == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    const NetId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (const NetId next : fanout[id]) {
      if (--pending[next] == 0) ready.push_back(next);
    }
  }
  return order;
}

TEST(CompiledStream, TopoOrderMatchesReferenceKahnSort) {
  for (const std::size_t l : {2, 8, 64}) {
    for (const bool dual_field : {false, true}) {
      const auto gen = core::BuildMmmcNetlist(l, dual_field);
      EXPECT_EQ(gen.netlist->TopoOrder(), ReferenceTopoOrder(*gen.netlist))
          << "l=" << l << " dual_field=" << dual_field;
    }
  }
  std::mt19937_64 rng(mont::test::TestSeed());
  const RandomNetlist rn = BuildRandomNetlist(rng, 6, 20, 300);
  EXPECT_EQ(rn.netlist.TopoOrder(), ReferenceTopoOrder(rn.netlist));
}

TEST(BatchSim, BatchDriverRejectsBadOperandCounts) {
  const auto gen = core::BuildMmmcNetlist(2);
  mont::test::BatchMmmcNetlistDriver drv(gen);
  const std::vector<BigUInt> pair(2, BigUInt{1});
  const std::vector<BigUInt> too_many(kLanes + 1, BigUInt{1});
  EXPECT_THROW(drv.Start(too_many, too_many), std::invalid_argument);
  EXPECT_THROW(drv.Start(pair, {BigUInt{1}}), std::invalid_argument);
}

TEST(BatchSim, SetInputRejectsNonInputs) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId g = nl.Not(a);
  BatchSimulator sim(nl);
  EXPECT_THROW(sim.SetInput(g, 1), std::logic_error);
  EXPECT_THROW(sim.InjectFault(12345, FaultType::kStuckAt0),
               std::out_of_range);
}

// The settle-skip optimisation must not change observable behaviour: held
// inputs and unchanging state produce identical values, and re-driving an
// input with the same word is still reflected after new edges.
TEST(BatchSim, SettleSkipPreservesSemantics) {
  Netlist nl;
  const NetId d = nl.AddInput("d");
  const NetId en = nl.AddInput("en");
  const NetId q = nl.Dff(d, en);
  const NetId out = nl.Xor(q, d);
  BatchSimulator sim(nl);
  sim.SetInputAll(d, true);
  sim.SetInputAll(en, false);
  for (int i = 0; i < 3; ++i) {
    sim.Tick();  // q holds 0; the extra settles are skipped
    EXPECT_EQ(sim.Peek(q), 0u);
    EXPECT_EQ(sim.Peek(out), BatchSimulator::kAllLanes);
  }
  sim.SetInputAll(en, true);
  sim.Tick();
  EXPECT_EQ(sim.Peek(q), BatchSimulator::kAllLanes);
  EXPECT_EQ(sim.Peek(out), 0u);
}

// ---------------------------------------------------------------------------
// Toggle accounting against an independent oracle
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> SnapshotWords(const BatchSimulator& sim,
                                         std::size_t net_count) {
  std::vector<std::uint64_t> words(net_count);
  for (NetId id = 0; id < net_count; ++id) words[id] = sim.Peek(id);
  return words;
}

/// Per-lane count of tracked nets whose value differs between two
/// snapshots, by plain bit tests (a net listed twice counts twice).
std::array<std::uint32_t, kLanes> OracleToggles(
    const std::vector<std::uint64_t>& before,
    const std::vector<std::uint64_t>& after,
    const std::vector<NetId>& tracked) {
  std::array<std::uint32_t, kLanes> counts{};
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    for (const NetId id : tracked) {
      if ((((before[id] ^ after[id]) >> lane) & 1u) != 0) ++counts[lane];
    }
  }
  return counts;
}

/// Drives random words into every primary input for `cycles` edges and
/// checks every Tick()'s ToggleCounts() against the oracle.  `tracked`
/// empty-optional means "every net" (the no-argument overload).  With
/// `faults`, a few random nets are faulted on random lanes first.
void CheckTogglesAgainstOracle(const Netlist& nl,
                               const std::optional<std::vector<NetId>>& tracked,
                               bool faults, std::mt19937_64& rng,
                               int cycles) {
  SCOPED_TRACE((tracked ? "subset of " + std::to_string(tracked->size())
                        : std::string("all nets")) +
               (faults ? ", faulted" : ""));
  const std::size_t net_count = nl.NodeCount();
  std::vector<NetId> oracle_nets;
  BatchSimulator sim(nl);
  if (faults) {
    std::vector<BatchSimulator::LaneFault> population;
    for (int i = 0; i < 6; ++i) {
      population.push_back({static_cast<NetId>(rng() % net_count),
                            static_cast<FaultType>(rng() % 3), rng()});
    }
    sim.InjectFaults(population);
  }
  if (tracked.has_value()) {
    sim.EnableToggleCapture(*tracked);
    oracle_nets = *tracked;
  } else {
    sim.EnableToggleCapture();
    for (NetId id = 0; id < net_count; ++id) oracle_nets.push_back(id);
  }
  ASSERT_EQ(sim.TrackedNetCount(), oracle_nets.size());
  std::vector<std::uint64_t> before = SnapshotWords(sim, net_count);
  std::uint64_t total = 0;
  std::uint32_t most = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const auto& [input, name] : nl.Inputs()) sim.SetInput(input, rng());
    sim.Tick();
    const std::vector<std::uint64_t> after = SnapshotWords(sim, net_count);
    const auto expected = OracleToggles(before, after, oracle_nets);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      ASSERT_EQ(sim.ToggleCounts()[lane], expected[lane])
          << "cycle " << cycle << " lane " << lane;
      total += expected[lane];
      most = std::max(most, expected[lane]);
    }
    before = after;
  }
  if (!tracked.has_value()) {
    EXPECT_GT(total, 0u) << "the stimulus must make the circuit switch";
  }
  if (oracle_nets.size() > 4096) {
    EXPECT_GE(most, 4096u) << "some count must need 13 planes";
  }
}

/// The tracked-set shapes the counter must get right: empty, a single
/// net, one short of / exactly / one past a block of every toggle kernel
/// (16 vectors of 2, 4 or 8 words), two blocks plus one, every net, a
/// subset listing a net twice, and a list of more than 4096 entries that
/// repeats the primary input `hot`, so that a count on every lane where it
/// switches needs 13 planes.
std::vector<std::optional<std::vector<NetId>>> TrackedSets(
    std::size_t net_count, NetId hot, std::mt19937_64& rng) {
  const auto random_nets = [&](std::size_t size) {
    std::vector<NetId> nets;
    for (std::size_t i = 0; i < size; ++i) {
      nets.push_back(static_cast<NetId>(rng() % net_count));
    }
    return nets;
  };
  std::vector<std::optional<std::vector<NetId>>> sets;
  sets.emplace_back(random_nets(0));
  sets.emplace_back(random_nets(1));
  for (const std::size_t block : {32, 64, 128}) {
    for (const std::size_t size :
         {block - 1, block, block + 1, 2 * block + 1}) {
      sets.emplace_back(random_nets(size));
    }
  }
  sets.emplace_back(std::nullopt);
  std::vector<NetId> with_duplicate = random_nets(20);
  with_duplicate.push_back(with_duplicate[3]);
  with_duplicate.push_back(with_duplicate[3]);
  sets.emplace_back(with_duplicate);
  std::vector<NetId> heavy(4500, hot);
  for (const NetId id : random_nets(101)) heavy.push_back(id);
  sets.emplace_back(heavy);
  return sets;
}

TEST(BatchToggles, CountsMatchSnapshotOracleOnSmallNetlist) {
  std::mt19937_64 rng(mont::test::TestSeed());
  const RandomNetlist rn = BuildRandomNetlist(rng, /*n_inputs=*/6,
                                              /*n_dffs=*/8, /*n_gates=*/80);
  for (const auto& tracked : TrackedSets(rn.netlist.NodeCount(),
                                         rn.inputs.front(), rng)) {
    for (const bool faults : {false, true}) {
      CheckTogglesAgainstOracle(rn.netlist, tracked, faults, rng, 24);
    }
  }
}

TEST(BatchToggles, CountsMatchSnapshotOracleOnMmmc64) {
  std::mt19937_64 rng(mont::test::TestSeed(1));
  const auto gen = core::BuildMmmcNetlist(64);
  for (const auto& tracked :
       TrackedSets(gen.netlist->NodeCount(), gen.start, rng)) {
    for (const bool faults : {false, true}) {
      CheckTogglesAgainstOracle(*gen.netlist, tracked, faults, rng, 12);
    }
  }
}

// Every toggle kernel this CPU supports, not only the one BatchSimulator
// picked, against the oracle on MMMC-64 edges: the kernel is called on
// snapshots of the nets, padded to its block as BatchSimulator pads them.
class ToggleKernelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ToggleKernelTest, MatchesOracleOnMmmc64) {
  const ToggleKernel& kernel = ToggleKernels()[GetParam()];
  if (!kernel.supported) {
    GTEST_SKIP() << "this CPU lacks " << kernel.name;
  }
  std::mt19937_64 rng(mont::test::TestSeed(2));
  const auto gen = core::BuildMmmcNetlist(64);
  const Netlist& nl = *gen.netlist;
  const std::size_t net_count = nl.NodeCount();
  const auto padded = [&](std::size_t n) {
    return (n + kernel.block_words - 1) / kernel.block_words *
           kernel.block_words;
  };
  for (const auto& tracked : TrackedSets(net_count, gen.start, rng)) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE(std::string(kernel.name) +
                   (tracked ? ", subset of " + std::to_string(tracked->size())
                            : std::string(", all nets")) +
                   (faults ? ", faulted" : ""));
      BatchSimulator sim(nl);
      if (faults) {
        std::vector<BatchSimulator::LaneFault> population;
        for (int i = 0; i < 6; ++i) {
          population.push_back({static_cast<NetId>(rng() % net_count),
                                static_cast<FaultType>(rng() % 3), rng()});
        }
        sim.InjectFaults(population);
      }
      // All nets: words 0..net_count-1 padded with zeros.  A subset: its
      // nets padded with `net_count`, a word that stays 0.
      std::vector<NetId> nets;
      std::vector<NetId> oracle_nets;
      std::size_t count = net_count;
      if (tracked) {
        oracle_nets = *tracked;
        count = tracked->size();
        nets = *tracked;
        nets.resize(padded(count), static_cast<NetId>(net_count));
      } else {
        for (NetId id = 0; id < net_count; ++id) oracle_nets.push_back(id);
      }
      const std::size_t words = std::max(padded(net_count), net_count + 1);
      const auto snapshot = [&] {
        std::vector<std::uint64_t> w = SnapshotWords(sim, net_count);
        w.resize(words, 0);
        return w;
      };
      const auto word = [&](const std::vector<std::uint64_t>& w,
                            std::size_t i) {
        return tracked ? w[nets[i]] : w[i];
      };
      std::vector<std::uint64_t> before = snapshot();
      std::vector<std::uint64_t> prev(padded(count));
      for (std::size_t i = 0; i < prev.size(); ++i) prev[i] = word(before, i);
      std::uint32_t most = 0;
      for (int cycle = 0; cycle < 12; ++cycle) {
        for (const auto& [input, name] : nl.Inputs()) {
          sim.SetInput(input, rng());
        }
        sim.Tick();
        const std::vector<std::uint64_t> after = snapshot();
        std::array<std::uint32_t, kLanes> counts{};
        kernel.count(count, after.data(), tracked ? nets.data() : nullptr,
                     prev.data(), counts.data());
        ASSERT_EQ(counts, OracleToggles(before, after, oracle_nets))
            << "cycle " << cycle;
        for (std::size_t i = 0; i < prev.size(); ++i) {
          ASSERT_EQ(prev[i], word(after, i)) << "cycle " << cycle;
        }
        most = std::max(most, *std::max_element(counts.begin(), counts.end()));
        before = after;
      }
      if (count > 4096) {
        EXPECT_GE(most, 4096u) << "some count must need 13 planes";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryKernel, ToggleKernelTest,
    ::testing::Range<std::size_t>(0, ToggleKernels().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(ToggleKernels()[info.param].name);
    });

// BatchSimulator counts with the widest kernel this CPU supports.
TEST(BatchToggles, ActiveKernelIsTheWidestSupported) {
  const ToggleKernel& active = ActiveToggleKernel();
  EXPECT_TRUE(active.supported);
  for (const ToggleKernel& kernel : ToggleKernels()) {
    if (&kernel == &active) break;
    EXPECT_FALSE(kernel.supported) << kernel.name;
  }
  EXPECT_TRUE(ToggleKernels().back().supported);
  EXPECT_EQ(&ActiveToggleKernel(), &active);
}

// An empty selection tracks nothing; only the no-argument overload tracks
// every net.
TEST(BatchToggles, EmptySelectionTracksNothing) {
  const auto gen = core::BuildMmmcNetlist(8);
  BatchSimulator sim(*gen.netlist);
  sim.EnableToggleCapture(std::span<const NetId>{});
  EXPECT_TRUE(sim.ToggleCaptureEnabled());
  EXPECT_EQ(sim.TrackedNetCount(), 0u);
  sim.SetInputAll(gen.start, true);
  sim.Tick();
  sim.Tick();
  for (const std::uint32_t count : sim.ToggleCounts()) EXPECT_EQ(count, 0u);

  sim.EnableToggleCapture();
  EXPECT_EQ(sim.TrackedNetCount(), gen.netlist->NodeCount());
  sim.SetInputAll(gen.start, false);
  sim.Tick();
  EXPECT_GT(sim.ToggleCounts()[0], 0u);
  sim.DisableToggleCapture();
  EXPECT_EQ(sim.TrackedNetCount(), 0u);
  EXPECT_THROW(sim.EnableToggleCapture(std::vector<NetId>{
                   static_cast<NetId>(gen.netlist->NodeCount())}),
               std::out_of_range);
}

// Paused edges are not counted; the first edge after a resume counts
// against the values at the resume, exactly as if counting had never
// stopped.
TEST(BatchToggles, PauseSkipsEdgesAndResumeRebaselines) {
  const auto gen = core::BuildMmmcNetlist(8);
  BatchSimulator paused(*gen.netlist);
  BatchSimulator counting(*gen.netlist);
  auto rng = mont::test::TestRng();
  for (BatchSimulator* sim : {&paused, &counting}) {
    sim->PauseToggleCapture();  // disabled: a no-op
    EXPECT_FALSE(sim->ToggleCaptureEnabled());
    sim->EnableToggleCapture();
  }
  std::vector<bignum::BigUInt> xs, ys;
  for (int lane = 0; lane < 64; ++lane) {
    xs.push_back(rng.ExactBits(8));
    ys.push_back(rng.ExactBits(8));
  }
  for (BatchSimulator* sim : {&paused, &counting}) {
    sim->SetInputWideLanes(gen.x_in, xs);
    sim->SetInputWideLanes(gen.y_in, ys);
    sim->SetInputAll(gen.start, true);
    sim->Tick();
    sim->SetInputAll(gen.start, false);
  }
  const auto before_pause = paused.ToggleCounts();
  paused.PauseToggleCapture();
  EXPECT_FALSE(paused.ToggleCaptureEnabled());
  EXPECT_EQ(paused.TrackedNetCount(), gen.netlist->NodeCount());
  for (int edge = 0; edge < 5; ++edge) {
    paused.Tick();
    counting.Tick();
  }
  EXPECT_EQ(paused.ToggleCounts(), before_pause);
  paused.ResumeToggleCapture();
  EXPECT_TRUE(paused.ToggleCaptureEnabled());
  for (int edge = 0; edge < 5; ++edge) {
    paused.Tick();
    counting.Tick();
    EXPECT_EQ(paused.ToggleCounts(), counting.ToggleCounts()) << "edge " << edge;
  }
  counting.ResumeToggleCapture();  // not paused: a no-op
  counting.Tick();
  paused.Tick();
  EXPECT_EQ(paused.ToggleCounts(), counting.ToggleCounts());
}

}  // namespace
}  // namespace mont::rtl
