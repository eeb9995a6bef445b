#include "rtl/compiled.hpp"

#include <algorithm>

namespace mont::rtl {

namespace {

/// Combinational ops kBuf..kMux, the second component of a stream key.
constexpr std::uint32_t kFirstGateOp = static_cast<std::uint32_t>(Op::kBuf);
constexpr std::uint32_t kGateOps =
    static_cast<std::uint32_t>(Op::kMux) - kFirstGateOp + 1;

/// Turns per-bucket counts (count of bucket k at starts[k + 1]) into
/// bucket start offsets.
void PrefixSum(std::vector<std::uint32_t>& starts) {
  for (std::size_t k = 1; k < starts.size(); ++k) starts[k] += starts[k - 1];
}

}  // namespace

CompiledNetlist::CompiledNetlist(const Netlist& netlist) {
  net_count_ = netlist.NodeCount();
  is_input_.assign(net_count_, 0);
  instr_of_.assign(net_count_, kNoInstruction);
  dff_index_of_.assign(net_count_, kNoInstruction);
  LowerGates(netlist);

  std::vector<Dff> dffs;
  for (NetId id = 0; id < net_count_; ++id) {
    const Node& node = netlist.NodeAt(id);
    switch (node.op) {
      case Op::kInput:
        is_input_[id] = 1;
        inputs_.push_back(id);
        break;
      case Op::kConst1:
        const1_.push_back(id);
        break;
      case Op::kDff: {
        Dff dff;
        dff.q = id;
        dff.d = node.a == kNoNet ? static_cast<std::uint32_t>(id)
                                 : static_cast<std::uint32_t>(node.a);
        dff.enable = node.b == kNoNet ? OnesSlot()
                                      : static_cast<std::uint32_t>(node.b);
        dff.reset = Slot(node.c);
        dffs.push_back(dff);
        break;
      }
      default:
        break;
    }
  }
  LowerDffs(std::move(dffs));
}

void CompiledNetlist::LowerGates(const Netlist& netlist) {
  const std::vector<NetId>& topo = netlist.TopoOrder();
  // Levels in topological order (sources stay 0), and each gate's bucket
  // key (level - 1, op) with its bucket counted at starts[key + 1].
  std::vector<std::uint32_t> level(net_count_, 0);
  std::vector<std::uint32_t> keys(topo.size());
  std::vector<std::uint32_t> starts(1, 0);
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const Node& node = netlist.NodeAt(topo[i]);
    std::uint32_t deepest = 0;
    for (const NetId src : FaninOf(node)) {
      deepest = std::max(deepest, level[src]);
    }
    level[topo[i]] = deepest + 1;
    keys[i] = deepest * kGateOps +
              (static_cast<std::uint32_t>(node.op) - kFirstGateOp);
    if (keys[i] + 2 > starts.size()) starts.resize(keys[i] + 2, 0);
    ++starts[keys[i] + 1];
  }
  PrefixSum(starts);

  // One stable counting pass places every gate at its (level, op) slot.
  a_.resize(topo.size());
  b_.resize(topo.size());
  c_.resize(topo.size());
  out_.resize(topo.size());
  std::vector<std::uint32_t> next(starts.begin(), starts.end() - 1);
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const NetId id = topo[i];
    const Node& node = netlist.NodeAt(id);
    const std::uint32_t at = next[keys[i]]++;
    instr_of_[id] = at;
    a_[at] = Slot(node.a);
    b_[at] = Slot(node.b);
    c_[at] = Slot(node.c);
    out_[at] = id;
  }
  for (std::size_t key = 0; key + 1 < starts.size(); ++key) {
    if (starts[key] == starts[key + 1]) continue;
    runs_.push_back({static_cast<Op>(kFirstGateOp + key % kGateOps),
                     starts[key], starts[key + 1]});
  }
}

void CompiledNetlist::LowerDffs(std::vector<Dff> dffs) {
  // Two stable counting passes, by reset and then by enable, order the
  // flip-flops by (enable, reset) and keep NetId order within a group.
  std::vector<Dff> sorted(dffs.size());
  for (std::uint32_t Dff::*field : {&Dff::reset, &Dff::enable}) {
    std::vector<std::uint32_t> starts(WordCount() + 1, 0);
    for (const Dff& dff : dffs) ++starts[dff.*field + 1];
    PrefixSum(starts);
    for (const Dff& dff : dffs) sorted[starts[dff.*field]++] = dff;
    dffs.swap(sorted);
  }
  dffs_ = std::move(dffs);
  for (std::uint32_t i = 0; i < dffs_.size(); ++i) {
    const Dff& dff = dffs_[i];
    dff_index_of_[dff.q] = i;
    if (latch_groups_.empty() || latch_groups_.back().enable != dff.enable ||
        latch_groups_.back().reset != dff.reset) {
      latch_groups_.push_back({dff.enable, dff.reset, i, i});
    }
    latch_groups_.back().end = i + 1;
  }
}

}  // namespace mont::rtl
