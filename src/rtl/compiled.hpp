// compiled.hpp — a Netlist lowered once into a flat, cache-friendly
// instruction stream for fast repeated simulation.
//
// The walking-the-graph simulator pays for pointer-chasing Node lookups on
// every gate of every Settle().  CompiledNetlist performs that traversal
// exactly once: the combinational cone becomes a structure-of-arrays
// stream of (op, a, b, c, out) index tuples, the flip-flops become a dense
// latch table, and every absent operand is redirected to one of two
// scratch value slots (constant all-0 and constant all-1) so the
// evaluation loops are branch-free.  Both the scalar Simulator and the
// 64-lane BatchSimulator execute this form.
//
// Stream order.  Every gate has a logic level: evaluation sources (inputs,
// constants, flip-flop outputs) are level 0 and a gate is one more than
// its deepest operand.  The stream is ordered by (level, op), so it splits
// into Runs() — maximal stretches of one op at one level (22 on the
// 64-bit MMMC, against 661 single-op stretches in plain topological
// order).  No
// gate reads another gate of its own level, so the order is still
// topological, and an evaluator can dispatch once per run and then loop
// over a single op; nothing in a run reads the run's own outputs.
//
// Latch order.  Dffs() is ordered by (enable, reset) net, so flip-flops
// sharing both control nets form contiguous LatchGroups().  A group whose
// enable and reset are 0 on every lane holds its value on the next edge
// and costs nothing to clock.
//
// A CompiledNetlist is a self-contained snapshot: it keeps no reference to
// the source Netlist, so the netlist may be destroyed (or mutated and
// re-compiled) afterwards.
#pragma once

#include <cstdint>
#include <vector>

#include "rtl/netlist.hpp"

namespace mont::rtl {

class CompiledNetlist {
 public:
  /// Index of an instruction in the stream; kNoInstruction marks nets that
  /// are evaluation sources (inputs, constants, flip-flop outputs) and
  /// therefore have no computing instruction — the fault-injection hook
  /// uses this to route overrides to the right evaluation phase.
  static constexpr std::uint32_t kNoInstruction =
      std::numeric_limits<std::uint32_t>::max();

  /// One flip-flop: q <= reset ? 0 : (enable ? d : q) on each clock edge.
  /// Absent enable points at the all-ones slot, absent reset at the
  /// all-zeros slot, absent d at q itself — so the latch loop needs no
  /// presence checks.
  struct Dff {
    NetId q = kNoNet;
    std::uint32_t d = 0;
    std::uint32_t enable = 0;
    std::uint32_t reset = 0;
  };

  /// Instructions [begin, end) of the stream: one op at one logic level.
  struct Run {
    Op op = Op::kBuf;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Dffs() [begin, end): the flip-flops clocked by one (enable, reset)
  /// pair of value slots.
  struct LatchGroup {
    std::uint32_t enable = 0;
    std::uint32_t reset = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Lowers `netlist`.  Throws std::logic_error on combinational cycles
  /// (via Netlist::TopoOrder).
  explicit CompiledNetlist(const Netlist& netlist);

  /// Number of nets in the source netlist.
  std::size_t NetCount() const { return net_count_; }
  /// Value-array length: every net plus the two scratch slots.
  std::size_t WordCount() const { return net_count_ + 2; }
  std::uint32_t ZeroSlot() const { return static_cast<std::uint32_t>(net_count_); }
  std::uint32_t OnesSlot() const {
    return static_cast<std::uint32_t>(net_count_ + 1);
  }

  /// Parallel arrays of the (level, op)-ordered combinational stream.
  std::size_t InstructionCount() const { return out_.size(); }
  const std::vector<std::uint32_t>& AStream() const { return a_; }
  const std::vector<std::uint32_t>& BStream() const { return b_; }
  const std::vector<std::uint32_t>& CStream() const { return c_; }
  const std::vector<NetId>& OutStream() const { return out_; }
  /// The stream cut into single-op runs, in stream order.
  const std::vector<Run>& Runs() const { return runs_; }

  /// Flip-flops ordered by (enable, reset) and cut into LatchGroups().
  const std::vector<Dff>& Dffs() const { return dffs_; }
  const std::vector<LatchGroup>& LatchGroups() const { return latch_groups_; }
  const std::vector<NetId>& InputNets() const { return inputs_; }
  const std::vector<NetId>& Const1Nets() const { return const1_; }

  bool ValidNet(NetId id) const { return id < net_count_; }
  bool IsInput(NetId id) const { return ValidNet(id) && is_input_[id] != 0; }

  /// Instruction computing `id`, or kNoInstruction for source nets.
  std::uint32_t InstructionOf(NetId id) const { return instr_of_.at(id); }
  /// Index into Dffs() for a flip-flop net, or kNoInstruction otherwise.
  std::uint32_t DffIndexOf(NetId id) const { return dff_index_of_.at(id); }

 private:
  /// Value slot an operand reads: the net itself, or the all-zeros slot
  /// for an absent operand.
  std::uint32_t Slot(NetId id) const {
    return id == kNoNet ? ZeroSlot() : static_cast<std::uint32_t>(id);
  }
  void LowerGates(const Netlist& netlist);
  void LowerDffs(std::vector<Dff> dffs);

  std::size_t net_count_ = 0;
  std::vector<std::uint32_t> a_;
  std::vector<std::uint32_t> b_;
  std::vector<std::uint32_t> c_;
  std::vector<NetId> out_;
  std::vector<Run> runs_;
  std::vector<Dff> dffs_;
  std::vector<LatchGroup> latch_groups_;
  std::vector<NetId> inputs_;
  std::vector<NetId> const1_;
  std::vector<std::uint8_t> is_input_;
  std::vector<std::uint32_t> instr_of_;
  std::vector<std::uint32_t> dff_index_of_;
};

}  // namespace mont::rtl
