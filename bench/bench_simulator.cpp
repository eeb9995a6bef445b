// bench_simulator — the gate-level simulation engines head to head: the
// scalar (1-lane) Simulator vs the 64-lane bit-parallel BatchSimulator,
// both running full Montgomery multiplications on generated MMMC netlists
// across operand lengths.  Metrics per netlist size:
//
//   * cycles/s   — clock edges simulated per second (scalar), and
//                  lane-cycles/s for the batch engine (edges x 64 lanes,
//                  i.e. how many scalar-equivalent cycles it retires);
//   * gate-evals/s — cycles/s x combinational nodes, the raw event rate;
//   * speedup    — batch lane-cycles/s over scalar cycles/s.
//
// Every batch lane is verified against the software Montgomery reference
// before timing starts, so the numbers are for a simulator that is
// provably still correct.  Prints the toggle kernel the process picked
// (stdout only).  Writes BENCH_simulator.json (see bench_json.hpp) for CI
// trend tracking; --smoke restricts the sweep for the ctest `perf` label.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/netlist_gen.hpp"
#include "core/sim_drivers.hpp"
#include "rtl/batch_sim.hpp"
#include "rtl/compiled.hpp"
#include "rtl/simulator.hpp"

namespace {

using mont::bignum::BigUInt;
using mont::core::MmmcNetlist;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kLanes = mont::rtl::BatchSimulator::kLanes;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct EngineRate {
  double cycles_per_sec = 0;  // clock edges / s (per engine pass)
  std::uint64_t edges = 0;
  double seconds = 0;
};

/// Repeats `multiply` (which returns clock edges spent) until the time
/// budget is used up.
template <typename OneMultiply>
EngineRate Measure(double budget_sec, OneMultiply&& multiply) {
  EngineRate rate;
  const Clock::time_point begin = Clock::now();
  Clock::time_point now = begin;
  do {
    rate.edges += multiply();
    now = Clock::now();
  } while (Seconds(begin, now) < budget_sec);
  rate.seconds = Seconds(begin, now);
  rate.cycles_per_sec = static_cast<double>(rate.edges) / rate.seconds;
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<std::size_t> lengths =
      smoke ? std::vector<std::size_t>{16, 64}
            : std::vector<std::size_t>{16, 32, 64, 128, 256, 512};
  const double budget = smoke ? 0.25 : 1.0;

  std::printf("=== Gate-level simulation engines: scalar vs 64-lane "
              "bit-parallel ===\n");
  std::printf("toggle kernel: %s\n\n", mont::rtl::ActiveToggleKernel().name);
  std::printf("%6s | %9s %7s | %12s %13s | %14s | %8s\n", "l", "gates", "FFs",
              "scalar cyc/s", "batch lcyc/s", "gate-evals/s", "speedup");
  std::printf("-------+-------------------+----------------------------+"
              "----------------+---------\n");

  std::vector<mont::bench::JsonRow> rows;
  mont::bignum::RandomBigUInt rng(0x5eed5eedull);
  for (const std::size_t l : lengths) {
    const MmmcNetlist gen = mont::core::BuildMmmcNetlist(l);
    const auto stats = gen.netlist->Stats();
    const BigUInt n = rng.OddExactBits(l);
    const BigUInt two_n = n << 1;
    std::vector<BigUInt> xs, ys;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      xs.push_back(rng.Below(two_n));
      ys.push_back(rng.Below(two_n));
    }

    const mont::rtl::CompiledNetlist compiled(*gen.netlist);

    // Correctness gate: all 64 lanes against the software reference.
    {
      const mont::bignum::BitSerialMontgomery reference(n);
      mont::rtl::BatchSimulator sim(compiled);
      mont::core::MmmcBatchSimDriver drv(gen, sim);
      drv.LoadModulus(n);
      std::vector<BigUInt> results;
      if (!drv.TryMultiply(xs, ys, &results)) {
        std::printf("FAIL: FSM hung at l = %zu\n", l);
        return 1;
      }
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if (results[lane] != reference.MultiplyAlg2(xs[lane], ys[lane])) {
          std::printf("FAIL: lane %zu wrong at l = %zu\n", lane, l);
          return 1;
        }
      }
    }

    mont::rtl::Simulator scalar_sim(*gen.netlist);
    mont::core::MmmcSimDriver scalar(gen, scalar_sim);
    scalar.LoadModulus(n);
    std::size_t next = 0;
    const EngineRate scalar_rate = Measure(budget, [&] {
      next = (next + 1) % kLanes;
      std::uint64_t cycles = 0;
      scalar.TryMultiply(xs[next], ys[next], nullptr, &cycles);
      return cycles + 1;  // + the OUT -> IDLE drain edge
    });

    mont::rtl::BatchSimulator batch_sim(compiled);
    mont::core::MmmcBatchSimDriver batch(gen, batch_sim);
    batch.LoadModulus(n);
    const EngineRate batch_rate = Measure(budget, [&] {
      std::uint64_t cycles = 0;
      batch.TryMultiply(xs, ys, nullptr, &cycles);
      return cycles + 1;  // + the OUT -> IDLE drain edge
    });

    const double lane_cycles = batch_rate.cycles_per_sec * kLanes;
    const double speedup = lane_cycles / scalar_rate.cycles_per_sec;
    const double gate_evals =
        lane_cycles * static_cast<double>(stats.CombinationalNodes());
    std::printf("%6zu | %9zu %7zu | %12.3e %13.3e | %14.3e | %7.1fx\n", l,
                stats.CombinationalNodes(), stats.flip_flops,
                scalar_rate.cycles_per_sec, lane_cycles, gate_evals, speedup);

    rows.push_back({
        {"l", l},
        {"gates", stats.CombinationalNodes()},
        {"flip_flops", stats.flip_flops},
        {"scalar_cycles_per_sec", scalar_rate.cycles_per_sec},
        {"batch_edges_per_sec", batch_rate.cycles_per_sec},
        {"batch_lane_cycles_per_sec", lane_cycles},
        {"gate_evals_per_sec", gate_evals},
        {"speedup_vs_scalar", speedup},
        {"active_lanes", kLanes},
    });
  }

  const std::string path = mont::bench::WriteBenchJson(
      "simulator", rows, {{"smoke", smoke}, {"lanes", kLanes}});
  std::printf("\nlane-cycles/s = clock edges/s x 64 lanes (scalar-equivalent "
              "throughput).\nJSON written to %s\n", path.c_str());
  return 0;
}
