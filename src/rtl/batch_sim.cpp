#include "rtl/batch_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
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
  active_groups_.reserve(compiled_.LatchGroups().size());
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

namespace {

/// out[i] = f(a[i], b[i], c[i]) over instructions [begin, end) of one run.
/// Nothing in a run reads the run's own outputs, so the loop carries no
/// dependence from one instruction to the next.
template <typename F>
void EvalRun(std::uint64_t* w, const std::uint32_t* as,
                    const std::uint32_t* bs, const std::uint32_t* cs,
                    const NetId* outs, std::uint32_t begin, std::uint32_t end,
                    F f) {
  for (std::uint32_t i = begin; i < end; ++i) {
    w[outs[i]] = f(w[as[i]], w[bs[i]], w[cs[i]]);
  }
}

}  // namespace

template <bool kHasCombFaults>
void BatchSimulator::SettleStream() {
  const std::uint32_t* as = compiled_.AStream().data();
  const std::uint32_t* bs = compiled_.BStream().data();
  const std::uint32_t* cs = compiled_.CStream().data();
  const NetId* outs = compiled_.OutStream().data();
  std::uint64_t* w = words_.data();
  auto fault = comb_faults_.cbegin();
  for (const CompiledNetlist::Run& run : compiled_.Runs()) {
    const auto eval = [&](auto f) {
      EvalRun(w, as, bs, cs, outs, run.begin, run.end, f);
    };
    using W = std::uint64_t;
    switch (run.op) {
      case Op::kBuf: eval([](W a, W, W) { return a; }); break;
      case Op::kNot: eval([](W a, W, W) { return ~a; }); break;
      case Op::kAnd: eval([](W a, W b, W) { return a & b; }); break;
      case Op::kOr: eval([](W a, W b, W) { return a | b; }); break;
      case Op::kXor: eval([](W a, W b, W) { return a ^ b; }); break;
      case Op::kNand: eval([](W a, W b, W) { return ~(a & b); }); break;
      case Op::kNor: eval([](W a, W b, W) { return ~(a | b); }); break;
      case Op::kXnor: eval([](W a, W b, W) { return ~(a ^ b); }); break;
      case Op::kMux:
        eval([](W a, W b, W c) { return (a & c) | (~a & b); });
        break;
      default: break;  // unreachable: the stream is purely combinational
    }
    if constexpr (kHasCombFaults) {
      // Exact although applied after the run: no gate of the run reads
      // another's output, and later runs see the overridden value.
      for (; fault != comb_faults_.cend() && fault->first < run.end; ++fault) {
        std::uint64_t& out = w[outs[fault->first]];
        out = ApplyMasks(fault->second, out);
      }
    }
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
  std::uint64_t* w = words_.data();
  // Phase 1: every DFF samples from the settled pre-edge values, all lanes
  // at once: next = reset ? 0 : (enable ? d : q).  A latch group whose
  // enable and reset are 0 on every lane holds its value, so it is
  // neither computed nor committed.
  active_groups_.clear();
  const std::vector<CompiledNetlist::LatchGroup>& groups =
      compiled_.LatchGroups();
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    const CompiledNetlist::LatchGroup& group = groups[g];
    const std::uint64_t en = w[group.enable];
    const std::uint64_t reset = w[group.reset];
    if ((en | reset) == 0) continue;
    active_groups_.push_back(g);
    for (std::uint32_t i = group.begin; i < group.end; ++i) {
      const CompiledNetlist::Dff& dff = dffs[i];
      next_state_[i] = ((en & w[dff.d]) | (~en & w[dff.q])) & ~reset;
    }
  }
  // Faulted flip-flops: the fault sits on the *output* net, not inside the
  // feedback path, so the hold path must recirculate the raw internal
  // state — otherwise an invert fault on a holding register would
  // oscillate.  Recompute those flip-flops from their retained raw value
  // and expose the override.  In a held group that leaves raw, and so the
  // exposed value, unchanged: only active groups need committing.
  for (const auto& [dff_index, fault_index] : dff_fault_hooks_) {
    const CompiledNetlist::Dff& dff = dffs[dff_index];
    SourceFault& sf = source_faults_[fault_index];
    const std::uint64_t q = sf.raw;
    const std::uint64_t en = w[dff.enable];
    const std::uint64_t d = dff.d == dff.q ? q : w[dff.d];
    sf.raw = ((en & d) | (~en & q)) & ~w[dff.reset];
    next_state_[dff_index] = ApplyMasks(sf.masks, sf.raw);
  }
  // Phase 2: commit simultaneously; re-settle only if any register moved.
  bool changed = false;
  for (const std::uint32_t g : active_groups_) {
    for (std::uint32_t i = groups[g].begin; i < groups[g].end; ++i) {
      changed |= next_state_[i] != w[dffs[i].q];
      w[dffs[i].q] = next_state_[i];
    }
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
  toggle_prev_.resize(compiled_.NetCount());
  ResetToggleBaseline();
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
  ResetToggleBaseline();
}

void BatchSimulator::DisableToggleCapture() {
  toggle_capture_ = false;
  toggle_paused_ = false;
  toggle_all_nets_ = false;
  toggle_nets_.clear();
  toggle_prev_.clear();
  toggle_counts_.fill(0);
}

void BatchSimulator::PauseToggleCapture() {
  if (!toggle_capture_) return;
  toggle_capture_ = false;
  toggle_paused_ = true;
}

void BatchSimulator::ResumeToggleCapture() {
  if (toggle_paused_) ResetToggleBaseline();
}

void BatchSimulator::ResetToggleBaseline() {
  if (toggle_all_nets_) {
    std::copy_n(words_.begin(), toggle_prev_.size(), toggle_prev_.begin());
  } else {
    for (std::size_t i = 0; i < toggle_nets_.size(); ++i) {
      toggle_prev_[i] = words_[toggle_nets_[i]];
    }
  }
  toggle_counts_.fill(0);
  toggle_capture_ = true;
  toggle_paused_ = false;
}

namespace {

/// Two 64-lane words in one SSE2 register (GCC/Clang vector extension).
using Word2 = std::uint64_t __attribute__((vector_size(16)));

/// Four 64-lane words side by side — element j belongs to tree j of four
/// interleaved Harley–Seal trees — held as a pair of 16-byte vectors.  A
/// single 32-byte vector type would change the calling convention where
/// AVX is off (GCC's -Wpsabi), and GCC 12 spills each load of one through
/// the stack; the pair stays in SSE2 registers.
struct Word4 {
  Word2 lo{};
  Word2 hi{};

  void Load(const std::uint64_t* p) {
    std::memcpy(&lo, p, sizeof lo);
    std::memcpy(&hi, p + 2, sizeof hi);
  }
  void Store(std::uint64_t* p) const {
    std::memcpy(p, &lo, sizeof lo);
    std::memcpy(p + 2, &hi, sizeof hi);
  }
  std::uint64_t Tree(std::size_t j) const { return j < 2 ? lo[j] : hi[j - 2]; }
  bool Any() const {
    const Word2 both = lo | hi;
    return (both[0] | both[1]) != 0;
  }
  Word4& operator^=(const Word4& o) {
    lo ^= o.lo;
    hi ^= o.hi;
    return *this;
  }
  friend Word4 operator^(const Word4& a, const Word4& b) {
    return {a.lo ^ b.lo, a.hi ^ b.hi};
  }
  friend Word4 operator&(const Word4& a, const Word4& b) {
    return {a.lo & b.lo, a.hi & b.hi};
  }
  friend Word4 operator|(const Word4& a, const Word4& b) {
    return {a.lo | b.lo, a.hi | b.hi};
  }
};

/// Carry-save adder over every bit position: high:low = a + b + c.  `low`
/// may alias an input.
template <typename T>
void Csa(T& high, T& low, const T& a, const T& b, const T& c) {
  const T u = a ^ b;
  const T carry = (a & b) | (u & c);
  low = u ^ c;
  high = carry;
}

/// Vertical (bit-sliced) counters: plane p holds bit p of every lane's
/// count.
constexpr std::size_t kPlanes = 32;  // covers any NetId count

/// kSpread[x] holds bit j of x in bit 0 of its byte j.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> spread{};
  for (std::size_t x = 0; x < 256; ++x) {
    for (std::size_t j = 0; j < 8; ++j) {
      if ((x >> j) & 1u) spread[x] |= std::uint64_t{1} << (8 * j);
    }
  }
  return spread;
}();

/// planes += carry << p.
void Ripple(std::uint64_t* planes, std::size_t p, std::uint64_t carry) {
  for (; carry != 0 && p < kPlanes; ++p) {
    const std::uint64_t next = planes[p] & carry;
    planes[p] ^= carry;
    carry = next;
  }
}
void Ripple(Word4* planes, std::size_t p, Word4 carry) {
  for (; p < kPlanes && carry.Any(); ++p) {
    const Word4 next = planes[p] & carry;
    planes[p] ^= carry;
    carry = next;
  }
}

/// Counts, per lane, the tracked words that differ from prev[0..n-1] and
/// refreshes prev.  The tracked words are w[0..n-1] (kAllNets) or
/// w[nets[0..n-1]].  Four Harley–Seal trees run interleaved over blocks of
/// 64 words, tree j taking the words at 4k + j: each block leaves one
/// Word4 of sixteens, and only that carry ripples into the planes above
/// the four accumulators.  The words past the last block ripple in four at
/// a time, the four trees' counters are summed once, the last n % 4 words
/// ripple in one at a time, and the planes are unpacked into counts.
template <bool kAllNets>
void CountToggles(std::size_t n, const std::uint64_t* w, const NetId* nets,
                  std::uint64_t* prev,
                  std::array<std::uint32_t, BatchSimulator::kLanes>& counts) {
  const auto word = [w, nets](std::size_t i) {
    if constexpr (kAllNets) {
      return w[i];
    } else {
      return w[nets[i]];
    }
  };
  // x = words i..i+3 XOR their previous values; prev takes the words.
  const auto toggled = [&](Word4& x, std::size_t i) {
    if constexpr (kAllNets) {
      x.Load(w + i);
    } else {
      x = {Word2{word(i), word(i + 1)}, Word2{word(i + 2), word(i + 3)}};
    }
    Word4 before;
    before.Load(prev + i);
    x.Store(prev + i);
    x ^= before;
  };
  Word4 planes4[kPlanes] = {};
  Word4 ones, twos, fours, eights;
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    Word4 x0, x1, twos_a, twos_b, fours_a, fours_b, eights_a, eights_b;
    Word4 sixteens;
    const auto pair = [&](Word4& twos_out, std::size_t k) {
      toggled(x0, i + 4 * k);
      toggled(x1, i + 4 * k + 4);
      Csa(twos_out, ones, ones, x0, x1);
    };
    pair(twos_a, 0);
    pair(twos_b, 2);
    Csa(fours_a, twos, twos, twos_a, twos_b);
    pair(twos_a, 4);
    pair(twos_b, 6);
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_a, fours, fours, fours_a, fours_b);
    pair(twos_a, 8);
    pair(twos_b, 10);
    Csa(fours_a, twos, twos, twos_a, twos_b);
    pair(twos_a, 12);
    pair(twos_b, 14);
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_b, fours, fours, fours_a, fours_b);
    Csa(sixteens, eights, eights, eights_a, eights_b);
    Ripple(planes4, 4, sixteens);
  }
  planes4[0] = ones;
  planes4[1] = twos;
  planes4[2] = fours;
  planes4[3] = eights;
  for (; i + 4 <= n; i += 4) {
    Word4 x;
    toggled(x, i);
    Ripple(planes4, 0, x);
  }
  // Sum the trees with bit-sliced ripple-carry adds over the planes a
  // count of at most n can occupy.
  const std::size_t top =
      std::min(kPlanes, static_cast<std::size_t>(std::bit_width(n)));
  std::uint64_t planes[kPlanes] = {};
  for (std::size_t tree = 0; tree < 4; ++tree) {
    std::uint64_t carry = 0;
    for (std::size_t p = 0; p < top; ++p) {
      const std::uint64_t a = planes[p];
      const std::uint64_t b = planes4[p].Tree(tree);
      const std::uint64_t u = a ^ b;
      planes[p] = u ^ carry;
      carry = (a & b) | (u & carry);
    }
  }
  for (; i < n; ++i) {
    const std::uint64_t current = word(i);
    Ripple(planes, 0, current ^ prev[i]);
    prev[i] = current;
  }
  // Unpack eight lanes at a time, branch-free: bytes[g] holds, in its byte
  // j, bits 8g..8g+7 of the count of lane 8b + j.
  for (std::size_t b = 0; b < 8; ++b) {
    std::uint64_t bytes[kPlanes / 8] = {};
    for (std::size_t p = 0; p < top; ++p) {
      bytes[p / 8] |= kSpread[(planes[p] >> (8 * b)) & 0xff] << (p % 8);
    }
    for (std::size_t j = 0; j < 8; ++j) {
      std::uint32_t count = 0;
      for (std::size_t g = 0; 8 * g < top; ++g) {
        const std::uint64_t byte = (bytes[g] >> (8 * j)) & 0xff;
        count |= static_cast<std::uint32_t>(byte) << (8 * g);
      }
      counts[8 * b + j] = count;
    }
  }
}

}  // namespace

void BatchSimulator::AccumulateToggles() {
  if (toggle_all_nets_) {
    CountToggles<true>(toggle_prev_.size(), words_.data(), nullptr,
                       toggle_prev_.data(), toggle_counts_);
  } else {
    CountToggles<false>(toggle_nets_.size(), words_.data(),
                        toggle_nets_.data(), toggle_prev_.data(),
                        toggle_counts_);
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

namespace {

/// Bus bits [base, base + 64) of a value as one word.
std::uint64_t BitsAt(const bignum::BigUInt& value, std::size_t base) {
  static_assert(bignum::BigUInt::kLimbBits == 32);
  const std::size_t limb = base / 32;
  return value.LimbAt(limb) |
         (std::uint64_t{value.LimbAt(limb + 1)} << 32);
}

/// In-place transpose of a 64x64 bit matrix: bit c of m[r] moves to bit r
/// of m[c].  Six rounds of block swaps, halving the block size each time.
void Transpose64(std::array<std::uint64_t, 64>& m) {
  std::uint64_t mask = 0x00000000ffffffffull;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

}  // namespace

void BatchSimulator::SetInputWideLanes(
    const std::vector<NetId>& bus, std::span<const bignum::BigUInt> values) {
  if (values.size() > kLanes) {
    throw std::invalid_argument(
        "BatchSimulator::SetInputWideLanes: more than 64 lane values");
  }
  std::array<std::uint64_t, 64> block;
  for (std::size_t base = 0; base < bus.size(); base += 64) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      block[lane] = lane < values.size() ? BitsAt(values[lane], base) : 0;
    }
    Transpose64(block);  // block[i] = bus bit base + i, one bit per lane
    for (std::size_t i = base; i < std::min(bus.size(), base + 64); ++i) {
      SetInput(bus[i], block[i - base]);
    }
  }
}

std::vector<bignum::BigUInt> BatchSimulator::PeekWideLanes(
    const std::vector<NetId>& nets, std::size_t lanes) const {
  if (lanes > kLanes) {
    throw std::out_of_range("BatchSimulator::PeekWideLanes: lane count");
  }
  // limbs[lane * stride ..] holds lane's value, two 32-bit limbs per word.
  const std::size_t stride = 2 * ((nets.size() + 63) / 64);
  std::vector<bignum::BigUInt::Limb> limbs(lanes * stride);
  std::array<std::uint64_t, 64> block;
  for (std::size_t base = 0; base < nets.size(); base += 64) {
    for (std::size_t i = 0; i < 64; ++i) {
      block[i] = base + i < nets.size() ? words_[nets[base + i]] : 0;
    }
    Transpose64(block);  // block[lane] = bus bits base.. of that lane
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      bignum::BigUInt::Limb* out = limbs.data() + lane * stride + base / 32;
      out[0] = static_cast<bignum::BigUInt::Limb>(block[lane]);
      out[1] = static_cast<bignum::BigUInt::Limb>(block[lane] >> 32);
    }
  }
  std::vector<bignum::BigUInt> out;
  out.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    out.push_back(bignum::BigUInt::FromLimbs(
        std::span(limbs).subspan(lane * stride, stride)));
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
