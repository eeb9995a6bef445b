#include "rtl/batch_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>  // declares the avx512f builtin Csa uses
#endif

namespace mont::rtl {

namespace {

std::size_t RoundUp(std::size_t n, std::size_t block) {
  return (n + block - 1) / block * block;
}

}  // namespace

BatchSimulator::BatchSimulator(const CompiledNetlist& compiled)
    : compiled_(compiled) {
  Init();
}

BatchSimulator::BatchSimulator(const Netlist& netlist)
    : owned_(std::make_unique<CompiledNetlist>(netlist)), compiled_(*owned_) {
  Init();
}

void BatchSimulator::Init() {
  // Padded so that every net's toggle-kernel block lies inside words_.
  words_.assign(
      RoundUp(compiled_.WordCount(), ActiveToggleKernel().block_words), 0);
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
  toggle_tracked_ = compiled_.NetCount();
  toggle_nets_.clear();
  // The padding words are the zero and ones slots and Init()'s zeros.
  toggle_prev_.resize(
      RoundUp(toggle_tracked_, ActiveToggleKernel().block_words));
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
  toggle_tracked_ = nets.size();
  toggle_nets_.assign(nets.begin(), nets.end());
  toggle_nets_.resize(
      RoundUp(toggle_tracked_, ActiveToggleKernel().block_words),
      compiled_.ZeroSlot());
  toggle_prev_.resize(toggle_nets_.size());
  ResetToggleBaseline();
}

void BatchSimulator::DisableToggleCapture() {
  toggle_capture_ = false;
  toggle_paused_ = false;
  toggle_all_nets_ = false;
  toggle_tracked_ = 0;
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

/// K 64-lane words side by side in one GCC vector; element k belongs to
/// tree k of the kernel's K interleaved Harley–Seal trees.  Vectors are
/// only ever passed by reference, so no calling convention depends on the
/// ISA a kernel is built for (GCC's -Wpsabi).  (GCC applies a dependent
/// vector_size only to a dependent element type.)
template <typename Word, std::size_t kWords>
struct VecOf {
  typedef Word type __attribute__((vector_size(kWords * sizeof(Word))));
};
template <std::size_t kWords>
using Vec = typename VecOf<std::uint64_t, kWords>::type;
using V16 = Vec<2>;
using V32 = Vec<4>;
using V64 = Vec<8>;

/// Carry-save adder over every bit position: high:low = a + b + c (high is
/// the majority, low the parity).  Either output may alias an input.
template <typename T>
[[gnu::always_inline]] inline void Csa(T& high, T& low, const T& a,
                                       const T& b, const T& c) {
  const T u = a ^ b;
  const T carry = (a & b) | (u & c);
  low = u ^ c;
  high = carry;
}

#if defined(__x86_64__) || defined(__i386__)
/// The same as two vpternlogq (GCC 12 emits four ops for the form above).  It
/// calls the builtin behind _mm512_ternarylogic_epi64, which is expanded
/// only where this is inlined, into the avx512f entry point: the intrinsic
/// (or a target attribute here) would make GCC refuse to inline it into
/// CountToggles, which is built for the baseline ISA until it is inlined.
/// No vector crosses a call, so -Wpsabi's ABI note does not apply.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
[[gnu::always_inline]] inline void Csa(V64& high, V64& low, const V64& a,
                                       const V64& b, const V64& c) {
  using Q = long long __attribute__((vector_size(64)));
  const Q x = reinterpret_cast<Q>(a);
  const Q y = reinterpret_cast<Q>(b);
  const Q z = reinterpret_cast<Q>(c);
  high = reinterpret_cast<V64>(
      __builtin_ia32_pternlogq512_mask(x, y, z, 0xe8, 0xff));
  low = reinterpret_cast<V64>(
      __builtin_ia32_pternlogq512_mask(x, y, z, 0x96, 0xff));
}
#pragma GCC diagnostic pop
#endif

/// Vertical (bit-sliced) counters: plane p holds bit p of every lane's
/// count.
constexpr std::size_t kPlanes = 32;  // covers any NetId count

/// sum[0..top-1] = the sum of the K trees in planes[0..top-1], which must
/// fit in `top` planes: the upper half of the trees is added into the lower
/// half with a bit-sliced ripple-carry add until one tree is left.
template <typename V>
[[gnu::always_inline]] inline void FoldTrees(const V* planes,
                                             std::size_t top,
                                             std::uint64_t* sum) {
  if constexpr (sizeof(V) == sizeof(std::uint64_t)) {
    for (std::size_t p = 0; p < top; ++p) sum[p] = planes[p][0];
  } else {
    using Half = Vec<sizeof(V) / sizeof(std::uint64_t) / 2>;
    Half halves[kPlanes];
    Half carry{};
    for (std::size_t p = 0; p < top; ++p) {
      Half lo, hi;
      std::memcpy(&lo, &planes[p], sizeof lo);
      std::memcpy(&hi, reinterpret_cast<const char*>(&planes[p]) + sizeof lo,
                  sizeof hi);
      Csa(carry, halves[p], lo, hi, carry);
    }
    FoldTrees(halves, top, sum);
  }
}

/// counts[lane] = bits 0..top-1 of that lane across planes[0..top-1],
/// branch-free, in vectors U of as many 32-bit lanes as fit in V: each
/// plane's bits for those lanes are broadcast, shifted into place lane by
/// lane and appended below the bits of the planes above.
template <typename V>
[[gnu::always_inline]] inline void UnpackPlanes(const std::uint64_t* planes,
                                               std::size_t top,
                                               std::uint32_t* counts) {
  constexpr std::size_t kGroup = sizeof(V) / sizeof(std::uint32_t);
  using U = typename VecOf<std::uint32_t, kGroup>::type;
  U shift;
  for (std::size_t j = 0; j < kGroup; ++j) shift[j] = j;
  for (std::size_t g = 0; g < BatchSimulator::kLanes; g += kGroup) {
    U count{};
    for (std::size_t p = top; p-- > 0;) {
      const U bits = U{} + static_cast<std::uint32_t>(planes[p] >> g);
      count = (count + count) | ((bits >> shift) & 1);
    }
    std::memcpy(counts + g, &count, sizeof count);
  }
}

/// The kernel of ToggleKernel::count over vectors V of K words: tree k
/// takes the tracked words at K·j + k.  Each block of sixteen vectors runs
/// through the four accumulators (ones, twos, fours, eights); its carry of
/// sixteens ripples into the planes above them over a fixed number of
/// planes, so nothing branches on the data.  The K trees are then folded
/// into one and its planes unpacked into counts.
template <typename V, bool kAllNets>
[[gnu::always_inline]] inline void CountToggles(std::size_t tracked,
                                                const std::uint64_t* w,
                                                const NetId* nets,
                                                std::uint64_t* prev,
                                                std::uint32_t* counts) {
  constexpr std::size_t kWords = sizeof(V) / sizeof(std::uint64_t);
  constexpr std::size_t kBlock = 16 * kWords;
  // A count is at most `tracked`, so `top` planes hold it exactly; one
  // tree counts at most 16 words per block.
  const std::size_t top =
      std::min(kPlanes, static_cast<std::size_t>(std::bit_width(tracked)));
  const std::size_t blocks = (tracked + kBlock - 1) / kBlock;
  const std::size_t tree_top =
      std::min(top, 4 + static_cast<std::size_t>(std::bit_width(blocks)));
  // x = the K tracked words at i XOR their previous values; prev takes
  // the words.  The lambdas are always_inline (in the GNU spelling, the
  // one GCC applies to a lambda's body) so that no build, -O0 included,
  // emits them apart from the entry point whose ISA they need.
  const auto toggled = [&](V& x, std::size_t i)
                           __attribute__((always_inline)) {
    if constexpr (kAllNets) {
      std::memcpy(&x, w + i, sizeof x);
    } else {
      for (std::size_t k = 0; k < kWords; ++k) x[k] = w[nets[i + k]];
    }
    V before;
    std::memcpy(&before, prev + i, sizeof before);
    std::memcpy(prev + i, &x, sizeof x);
    x ^= before;
  };
  V planes[kPlanes];
  for (std::size_t p = 4; p < top; ++p) planes[p] = V{};
  V ones{}, twos{}, fours{}, eights{};
  for (std::size_t i = 0; i < blocks * kBlock; i += kBlock) {
    V x0, x1, twos_a, twos_b, fours_a, fours_b, eights_a, eights_b;
    V sixteens;
    const auto pair = [&](V& twos_out, std::size_t j)
                          __attribute__((always_inline)) {
      toggled(x0, i + kWords * j);
      toggled(x1, i + kWords * (j + 1));
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
    for (std::size_t p = 4; p < tree_top; ++p) {
      const V carry = planes[p] & sixteens;
      planes[p] ^= sixteens;
      sixteens = carry;
    }
  }
  planes[0] = ones;
  planes[1] = twos;
  planes[2] = fours;
  planes[3] = eights;
  std::uint64_t sum[kPlanes];
  FoldTrees(planes, top, sum);
  UnpackPlanes<V>(sum, top, counts);
}

template <typename V>
[[gnu::always_inline]] inline void CountTogglesOf(
    std::size_t tracked, const std::uint64_t* w, const NetId* nets,
    std::uint64_t* prev, std::uint32_t* counts) {
  if (nets == nullptr) {
    CountToggles<V, true>(tracked, w, nets, prev, counts);
  } else {
    CountToggles<V, false>(tracked, w, nets, prev, counts);
  }
}

// The entry points: `flatten` and the helpers' always_inline put the whole
// kernel inside each, so every vector op is lowered for the entry point's
// ISA and no baseline-ISA helper runs with dirty upper vector registers.
#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx512f"), gnu::flatten]] void CountTogglesV64(
    std::size_t tracked, const std::uint64_t* w, const NetId* nets,
    std::uint64_t* prev, std::uint32_t* counts) {
  CountTogglesOf<V64>(tracked, w, nets, prev, counts);
}

[[gnu::target("avx2"), gnu::flatten]] void CountTogglesV32(
    std::size_t tracked, const std::uint64_t* w, const NetId* nets,
    std::uint64_t* prev, std::uint32_t* counts) {
  CountTogglesOf<V32>(tracked, w, nets, prev, counts);
}
#endif

[[gnu::flatten]] void CountTogglesV16(std::size_t tracked,
                                      const std::uint64_t* w,
                                      const NetId* nets, std::uint64_t* prev,
                                      std::uint32_t* counts) {
  CountTogglesOf<V16>(tracked, w, nets, prev, counts);
}

}  // namespace

std::span<const ToggleKernel> ToggleKernels() {
#if defined(__x86_64__) || defined(__i386__)
  static const std::array<ToggleKernel, 3> kernels = [] {
    __builtin_cpu_init();
    return std::array<ToggleKernel, 3>{{
        {"avx512f", 16 * 8, __builtin_cpu_supports("avx512f") != 0,
         &CountTogglesV64},
        {"avx2", 16 * 4, __builtin_cpu_supports("avx2") != 0,
         &CountTogglesV32},
        {"sse2", 16 * 2, true, &CountTogglesV16},
    }};
  }();
#else
  static const std::array<ToggleKernel, 1> kernels{{
      {"generic", 16 * 2, true, &CountTogglesV16},
  }};
#endif
  return kernels;
}

const ToggleKernel& ActiveToggleKernel() {
  static const ToggleKernel& active = *std::find_if(
      ToggleKernels().begin(), ToggleKernels().end(),
      [](const ToggleKernel& kernel) { return kernel.supported; });
  return active;
}

void BatchSimulator::AccumulateToggles() {
  ActiveToggleKernel().count(toggle_tracked_, words_.data(),
                             toggle_all_nets_ ? nullptr : toggle_nets_.data(),
                             toggle_prev_.data(), toggle_counts_.data());
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
