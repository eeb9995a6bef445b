#include "rtl/batch_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace mont::rtl {

BatchSimulator::BatchSimulator(const CompiledNetlist& compiled)
    : compiled_(compiled) {
  Init();
}

BatchSimulator::BatchSimulator(const Netlist& netlist)
    : owned_(std::make_unique<CompiledNetlist>(netlist)), compiled_(*owned_) {
  Init();
}

void BatchSimulator::Init() {
  words_.assign(compiled_.WordCount(), 0);
  words_[compiled_.OnesSlot()] = kAllLanes;
  for (const NetId id : compiled_.Const1Nets()) words_[id] = kAllLanes;
  next_state_.assign(compiled_.Dffs().size(), 0);
  dirty_ = true;
  Settle();
}

void BatchSimulator::CheckLane(std::size_t lane) {
  if (lane >= kLanes) {
    throw std::out_of_range("BatchSimulator: lane index out of range");
  }
}

void BatchSimulator::SetInput(NetId input, std::uint64_t lanes_value) {
  if (!compiled_.IsInput(input)) {
    throw std::logic_error(
        "BatchSimulator::SetInput: net is not a primary input");
  }
  if (!source_faults_.empty()) {
    for (SourceFault& sf : source_faults_) {
      if (sf.net != input) continue;
      sf.raw = lanes_value;
      words_[input] = ApplyMasks(sf.masks, lanes_value);
      dirty_ = true;
      return;
    }
  }
  words_[input] = lanes_value;
  dirty_ = true;
}

void BatchSimulator::SetInputLane(NetId input, std::size_t lane, bool value) {
  CheckLane(lane);
  const std::uint64_t bit = std::uint64_t{1} << lane;
  const std::uint64_t raw = RawOf(input);
  SetInput(input, value ? (raw | bit) : (raw & ~bit));
}

std::uint64_t BatchSimulator::RawOf(NetId net) const {
  for (const SourceFault& sf : source_faults_) {
    if (sf.net == net) return sf.raw;
  }
  return words_[net];
}

template <bool kHasCombFaults>
void BatchSimulator::SettleStream() {
  const Op* ops = compiled_.OpStream().data();
  const std::uint32_t* as = compiled_.AStream().data();
  const std::uint32_t* bs = compiled_.BStream().data();
  const std::uint32_t* cs = compiled_.CStream().data();
  const NetId* outs = compiled_.OutStream().data();
  std::uint64_t* w = words_.data();
  auto fault = comb_faults_.cbegin();
  const std::size_t n = compiled_.InstructionCount();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = w[as[i]];
    const std::uint64_t b = w[bs[i]];
    std::uint64_t out = 0;
    switch (ops[i]) {
      case Op::kBuf: out = a; break;
      case Op::kNot: out = ~a; break;
      case Op::kAnd: out = a & b; break;
      case Op::kOr: out = a | b; break;
      case Op::kXor: out = a ^ b; break;
      case Op::kNand: out = ~(a & b); break;
      case Op::kNor: out = ~(a | b); break;
      case Op::kXnor: out = ~(a ^ b); break;
      case Op::kMux: out = (a & w[cs[i]]) | (~a & b); break;
      default: continue;  // unreachable: the stream is purely combinational
    }
    if constexpr (kHasCombFaults) {
      if (fault != comb_faults_.cend() &&
          fault->first == static_cast<std::uint32_t>(i)) {
        out = ApplyMasks(fault->second, out);
        ++fault;
      }
    }
    w[outs[i]] = out;
  }
}

void BatchSimulator::Settle() {
  if (!dirty_) return;
  if (comb_faults_.empty()) {
    SettleStream<false>();
  } else {
    SettleStream<true>();
  }
  dirty_ = false;
}

void BatchSimulator::Tick() {
  Settle();
  const std::vector<CompiledNetlist::Dff>& dffs = compiled_.Dffs();
  // Phase 1: every DFF samples from the settled pre-edge values, all lanes
  // at once: next = reset ? 0 : (enable ? d : q).
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const CompiledNetlist::Dff& dff = dffs[i];
    const std::uint64_t q = words_[dff.q];
    const std::uint64_t en = words_[dff.enable];
    const std::uint64_t d = words_[dff.d];
    next_state_[i] = ((en & d) | (~en & q)) & ~words_[dff.reset];
  }
  // Faulted flip-flops: the fault sits on the *output* net, not inside the
  // feedback path, so the hold path must recirculate the raw internal
  // state — otherwise an invert fault on a holding register would
  // oscillate.  Recompute those flip-flops from their retained raw value
  // and expose the override.
  for (const auto& [dff_index, fault_index] : dff_fault_hooks_) {
    const CompiledNetlist::Dff& dff = dffs[dff_index];
    SourceFault& sf = source_faults_[fault_index];
    const std::uint64_t q = sf.raw;
    const std::uint64_t en = words_[dff.enable];
    const std::uint64_t d = dff.d == dff.q ? q : words_[dff.d];
    sf.raw = ((en & d) | (~en & q)) & ~words_[dff.reset];
    next_state_[dff_index] = ApplyMasks(sf.masks, sf.raw);
  }
  // Phase 2: commit simultaneously; re-settle only if any register moved.
  bool changed = false;
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    changed |= next_state_[i] != words_[dffs[i].q];
    words_[dffs[i].q] = next_state_[i];
  }
  if (changed) {
    dirty_ = true;
    Settle();
  }
  ++cycles_;
  if (toggle_capture_) AccumulateToggles();
}

void BatchSimulator::EnableToggleCapture() {
  toggle_all_nets_ = true;
  toggle_nets_.clear();
  toggle_prev_.assign(words_.begin(), words_.begin() + compiled_.NetCount());
  toggle_counts_.fill(0);
  toggle_capture_ = true;
}

void BatchSimulator::EnableToggleCapture(std::span<const NetId> nets) {
  for (const NetId id : nets) {
    if (!compiled_.ValidNet(id)) {
      throw std::out_of_range(
          "BatchSimulator::EnableToggleCapture: unknown net");
    }
  }
  toggle_all_nets_ = false;
  toggle_nets_.assign(nets.begin(), nets.end());
  toggle_prev_.resize(toggle_nets_.size());
  for (std::size_t i = 0; i < toggle_nets_.size(); ++i) {
    toggle_prev_[i] = words_[toggle_nets_[i]];
  }
  toggle_counts_.fill(0);
  toggle_capture_ = true;
}

void BatchSimulator::DisableToggleCapture() {
  toggle_capture_ = false;
  toggle_all_nets_ = false;
  toggle_nets_.clear();
  toggle_prev_.clear();
  toggle_counts_.fill(0);
}

namespace {

/// Carry-save adder over 64 bit positions: high:low = a + b + c.
void Csa(std::uint64_t& high, std::uint64_t& low, std::uint64_t a,
         std::uint64_t b, std::uint64_t c) {
  const std::uint64_t u = a ^ b;
  high = (a & b) | (u & c);
  low = u ^ c;
}

/// Counts, per lane, the words word(0..n-1) that differ from prev[0..n-1]
/// and refreshes prev.  Vertical (bit-sliced) counters: plane p holds bit p
/// of every lane's count.  Planes 0-3 are the Harley–Seal accumulators of a
/// 16-input adder tree; each block of 16 XOR words leaves one word of
/// sixteens, and only that carry ripples into the planes above.
template <typename Word>
void CountToggles(std::size_t n, Word word, std::uint64_t* prev,
                  std::array<std::uint32_t, BatchSimulator::kLanes>& counts) {
  constexpr std::size_t kPlanes = 32;  // covers any NetId count
  std::uint64_t planes[kPlanes] = {};
  const auto ripple = [&planes](std::size_t p, std::uint64_t carry) {
    for (; carry != 0 && p < kPlanes; ++p) {
      const std::uint64_t next = planes[p] & carry;
      planes[p] ^= carry;
      carry = next;
    }
  };
  const auto toggled = [&](std::size_t i) {
    const std::uint64_t current = word(i);
    const std::uint64_t changed = current ^ prev[i];
    prev[i] = current;
    return changed;
  };
  std::uint64_t ones = 0, twos = 0, fours = 0, eights = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    std::uint64_t twos_a = 0, twos_b = 0, fours_a = 0, fours_b = 0;
    std::uint64_t eights_a = 0, eights_b = 0, sixteens = 0;
    Csa(twos_a, ones, ones, toggled(i), toggled(i + 1));
    Csa(twos_b, ones, ones, toggled(i + 2), toggled(i + 3));
    Csa(fours_a, twos, twos, twos_a, twos_b);
    Csa(twos_a, ones, ones, toggled(i + 4), toggled(i + 5));
    Csa(twos_b, ones, ones, toggled(i + 6), toggled(i + 7));
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_a, fours, fours, fours_a, fours_b);
    Csa(twos_a, ones, ones, toggled(i + 8), toggled(i + 9));
    Csa(twos_b, ones, ones, toggled(i + 10), toggled(i + 11));
    Csa(fours_a, twos, twos, twos_a, twos_b);
    Csa(twos_a, ones, ones, toggled(i + 12), toggled(i + 13));
    Csa(twos_b, ones, ones, toggled(i + 14), toggled(i + 15));
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_b, fours, fours, fours_a, fours_b);
    Csa(sixteens, eights, eights, eights_a, eights_b);
    ripple(4, sixteens);
  }
  planes[0] = ones;
  planes[1] = twos;
  planes[2] = fours;
  planes[3] = eights;
  for (; i < n; ++i) ripple(0, toggled(i));
  counts.fill(0);
  for (std::size_t p = 0; p < kPlanes; ++p) {
    for (std::uint64_t lanes = planes[p]; lanes != 0; lanes &= lanes - 1) {
      counts[std::countr_zero(lanes)] |= std::uint32_t{1} << p;
    }
  }
}

}  // namespace

void BatchSimulator::AccumulateToggles() {
  const std::uint64_t* w = words_.data();
  if (toggle_all_nets_) {
    CountToggles(
        toggle_prev_.size(), [w](std::size_t i) { return w[i]; },
        toggle_prev_.data(), toggle_counts_);
  } else {
    const NetId* nets = toggle_nets_.data();
    CountToggles(
        toggle_nets_.size(), [w, nets](std::size_t i) { return w[nets[i]]; },
        toggle_prev_.data(), toggle_counts_);
  }
}

void BatchSimulator::Run(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) Tick();
}

void BatchSimulator::Reset() {
  for (const CompiledNetlist::Dff& dff : compiled_.Dffs()) words_[dff.q] = 0;
  for (const auto& [dff_index, fault_index] : dff_fault_hooks_) {
    SourceFault& sf = source_faults_[fault_index];
    sf.raw = 0;
    words_[compiled_.Dffs()[dff_index].q] = ApplyMasks(sf.masks, 0);
  }
  cycles_ = 0;
  dirty_ = true;
  Settle();
}

std::uint64_t BatchSimulator::PeekBus(const std::vector<NetId>& nets,
                                      std::size_t lane) const {
  if (nets.size() > 64) {
    throw std::invalid_argument(
        "BatchSimulator::PeekBus: bus wider than 64 nets, use PeekWide");
  }
  CheckLane(lane);
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if ((words_[nets[i]] >> lane) & 1u) out |= std::uint64_t{1} << i;
  }
  return out;
}

bignum::BigUInt BatchSimulator::PeekWide(const std::vector<NetId>& nets,
                                         std::size_t lane) const {
  CheckLane(lane);
  bignum::BigUInt out;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if ((words_[nets[i]] >> lane) & 1u) out.SetBit(i, true);
  }
  return out;
}

void BatchSimulator::InjectFault(NetId net, FaultType type,
                                 std::uint64_t lanes) {
  InjectFaults({LaneFault{net, type, lanes}});
}

void BatchSimulator::InjectFaults(const std::vector<LaneFault>& faults) {
  for (const LaneFault& fault : faults) {
    if (!compiled_.ValidNet(fault.net)) {
      throw std::out_of_range("BatchSimulator::InjectFault: unknown net");
    }
  }
  for (const LaneFault& fault : faults) {
    if (fault.lanes == 0) continue;
    FaultMasks& masks = faults_[fault.net];
    // Per lane, the last injected fault wins: release the lanes from every
    // mask, then claim them for the requested type.
    masks.stuck0 &= ~fault.lanes;
    masks.stuck1 &= ~fault.lanes;
    masks.invert &= ~fault.lanes;
    switch (fault.type) {
      case FaultType::kStuckAt0: masks.stuck0 |= fault.lanes; break;
      case FaultType::kStuckAt1: masks.stuck1 |= fault.lanes; break;
      case FaultType::kInvert: masks.invert |= fault.lanes; break;
    }
  }
  RebuildFaultTables();
  dirty_ = true;
  Settle();
}

void BatchSimulator::ClearFaults() {
  if (faults_.empty()) return;
  // Restore the retained un-faulted values of faulted source nets; faulted
  // combinational nets recompute on the next Settle().
  for (const SourceFault& sf : source_faults_) words_[sf.net] = sf.raw;
  faults_.clear();
  comb_faults_.clear();
  source_faults_.clear();
  dff_fault_hooks_.clear();
  dirty_ = true;
}

void BatchSimulator::RebuildFaultTables() {
  // Retain raw values of already-faulted source nets across the rebuild;
  // newly faulted sources are currently un-faulted, so words_ is raw.
  std::map<NetId, std::uint64_t> raws;
  for (const SourceFault& sf : source_faults_) raws[sf.net] = sf.raw;
  comb_faults_.clear();
  source_faults_.clear();
  dff_fault_hooks_.clear();
  for (const auto& [net, masks] : faults_) {
    if (masks.Empty()) continue;
    const std::uint32_t instr = compiled_.InstructionOf(net);
    if (instr != CompiledNetlist::kNoInstruction) {
      comb_faults_.emplace_back(instr, masks);
      continue;
    }
    SourceFault sf;
    sf.net = net;
    sf.masks = masks;
    const auto raw_it = raws.find(net);
    sf.raw = raw_it != raws.end() ? raw_it->second : words_[net];
    const std::uint32_t dff_index = compiled_.DffIndexOf(net);
    if (dff_index != CompiledNetlist::kNoInstruction) {
      dff_fault_hooks_.emplace_back(
          dff_index, static_cast<std::uint32_t>(source_faults_.size()));
    }
    source_faults_.push_back(sf);
  }
  std::sort(comb_faults_.begin(), comb_faults_.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const SourceFault& sf : source_faults_) {
    words_[sf.net] = ApplyMasks(sf.masks, sf.raw);
  }
}

}  // namespace mont::rtl
