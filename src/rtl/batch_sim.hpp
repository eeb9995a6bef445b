// batch_sim.hpp — 64-lane bit-parallel simulation over a CompiledNetlist.
//
// One std::uint64_t word is stored per net; bit k of every word belongs to
// lane k, so 64 independent stimuli (or 64 independently faulted copies of
// the circuit) evaluate in a single pass of plain bitwise ops — a 2-input
// gate costs one machine instruction for all 64 lanes, and a mux is
// (sel & if1) | (~sel & if0).  Lanes never interact: lane k of every net
// evolves exactly as a scalar Simulator driven with lane k's inputs and
// lane k's faults.
//
// The engine also tracks whether any evaluation source (primary input,
// flip-flop output, fault override) changed since the last Settle() and
// skips provably no-op settle passes — in steady state a Tick() costs one
// pass over the combinational stream, not the two the seed engine paid.
//
// A settle pass walks the compiled stream run by run (see compiled.hpp):
// one dispatch per run, then a tight loop of a single op, with overrides
// of faulted gates applied after the run that computes them.  The latch
// phase goes latch group by latch group, and a group whose enable and
// reset are 0 on every lane holds its value, so it is neither computed
// nor committed.  On the 64-bit MMMC (1916 nets, 1066 gates, 653
// flip-flops) a clock edge costs about 0.8 us of settle and 0.8 us of
// latching on a 2.0 GHz Xeon.
//
// Fault semantics are per-lane and idempotent: a fault is an override mask
// (stuck-at-0 / stuck-at-1 / invert) applied to a net's value, while the
// underlying un-faulted ("raw") value of source nets is retained — so
// clearing a fault restores the true value, and repeated Settle() calls
// are stable even under invert faults.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <map>
#include <new>
#include <span>
#include <vector>

#include "bignum/biguint.hpp"
#include "rtl/compiled.hpp"
#include "rtl/netlist.hpp"

namespace mont::rtl {

/// Fault models shared with the scalar Simulator (see fault.hpp for
/// campaigns).
enum class FaultType : std::uint8_t { kStuckAt0, kStuckAt1, kInvert };

class BatchSimulator {
 public:
  static constexpr std::size_t kLanes = 64;
  static constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

  /// Runs over an externally owned compiled netlist (which must outlive
  /// the simulator).  Compiling once and sharing is the cheap way to run
  /// many simulator instances of the same circuit.
  explicit BatchSimulator(const CompiledNetlist& compiled);
  /// Convenience: compiles `netlist` internally and owns the result.
  explicit BatchSimulator(const Netlist& netlist);

  // -- stimulus ---------------------------------------------------------------

  /// Drives all 64 lanes of a primary input at once (bit k = lane k).
  void SetInput(NetId input, std::uint64_t lanes_value);
  /// Drives one lane of a primary input, leaving the others untouched.
  void SetInputLane(NetId input, std::size_t lane, bool value);
  /// Drives the same value into every lane.
  void SetInputAll(NetId input, bool value) {
    SetInput(input, value ? kAllLanes : 0);
  }
  /// Drives a whole input bus (LSB first) on every lane at once: lane k
  /// gets values[k] truncated to the bus width, lanes past values.size()
  /// get 0.  Throws std::invalid_argument for more than 64 values.
  void SetInputWideLanes(const std::vector<NetId>& bus,
                         std::span<const bignum::BigUInt> values);

  // -- evaluation -------------------------------------------------------------

  /// Propagates combinational logic from current inputs and register
  /// state.  A no-op when nothing changed since the last settle.
  void Settle();
  /// One positive clock edge on every lane: settle, latch all flip-flops
  /// simultaneously, re-settle (skipped when no register changed).
  void Tick();
  void Run(std::size_t n);
  /// Resets all flip-flops to 0 (all lanes) and re-settles.
  void Reset();
  std::uint64_t CycleCount() const { return cycles_; }

  // -- observation ------------------------------------------------------------

  /// All 64 lanes of a net after the last Settle()/Tick().
  std::uint64_t Peek(NetId net) const { return words_[net]; }
  bool PeekLane(NetId net, std::size_t lane) const {
    CheckLane(lane);
    return ((words_[net] >> lane) & 1u) != 0;
  }
  /// Reads one lane of a bus (LSB first) as an integer.  Throws
  /// std::invalid_argument for buses wider than 64 nets — use PeekWide.
  std::uint64_t PeekBus(const std::vector<NetId>& nets,
                        std::size_t lane) const;
  /// Reads one lane of an arbitrarily wide bus (LSB first).
  bignum::BigUInt PeekWide(const std::vector<NetId>& nets,
                           std::size_t lane) const;
  /// Reads lanes 0..lanes-1 of an arbitrarily wide bus (LSB first) in one
  /// pass, one value per lane.  Throws std::out_of_range for lanes > 64.
  std::vector<bignum::BigUInt> PeekWideLanes(const std::vector<NetId>& nets,
                                             std::size_t lanes) const;

  // -- toggle accounting (power-trace capture hook) ---------------------------
  //
  // The side-channel lab's power model is CMOS switching activity: one
  // sample per clock cycle counting the nets whose value changed on that
  // edge, independently for each of the 64 lanes.  The accumulation is
  // bit-sliced (vertical counters) and carry-save: the nets' 64-lane XOR
  // words enter K interleaved Harley–Seal adder trees, sixteen vectors of
  // K words per block, so each net costs a fraction of a branch-free
  // vector op instead of 64 popcounts (see ToggleKernel; K = 8 with
  // AVX-512).  The tracked words are padded to a whole block with words
  // that never change, so no tail loop runs, and the words and their
  // previous values are cache-line aligned (about 6% per captured edge).
  // On the 64-bit MMMC (1916 nets) a full-net edge costs about 0.45 us of
  // counting with the AVX-512 kernel beside about 1.35 us of settling and
  // latching, and a full-net ModExp capture on one CPU takes about 1.4x
  // the time of plain simulation of the same multiplications (bench_sca's
  // capture_overhead row, gated at 2.2x).

  /// Enables per-cycle toggle accounting over every net of the circuit.
  /// The snapshot taken here is the baseline the next Tick()'s counts are
  /// measured against.
  void EnableToggleCapture();
  /// Enables toggle accounting over exactly `nets` (an empty span tracks
  /// nothing; a net listed twice counts twice).  Throws std::out_of_range
  /// for an unknown net.
  void EnableToggleCapture(std::span<const NetId> nets);
  void DisableToggleCapture();
  /// Stops counting but keeps the tracked selection: edges until
  /// ResumeToggleCapture() cost plain simulation.  A no-op while capture
  /// is disabled.
  void PauseToggleCapture();
  /// Counts again after PauseToggleCapture(), measured against the values
  /// the nets hold now (a no-op unless paused).
  void ResumeToggleCapture();
  /// True while counting (false while disabled or paused).
  bool ToggleCaptureEnabled() const { return toggle_capture_; }
  /// Number of tracked nets (0 while capture is disabled).
  std::size_t TrackedNetCount() const { return toggle_tracked_; }
  /// Per-lane count of tracked nets that changed across the most recent
  /// Tick() (all zeros before the first Tick() after enabling).
  const std::array<std::uint32_t, kLanes>& ToggleCounts() const {
    return toggle_counts_;
  }

  // -- fault injection --------------------------------------------------------

  /// One fault of a bulk injection: `type` forced onto `net` on the lanes
  /// selected by `lanes` (bit k = lane k).
  struct LaneFault {
    NetId net = kNoNet;
    FaultType type = FaultType::kStuckAt0;
    std::uint64_t lanes = kAllLanes;
  };

  /// Forces `net` faulty on the lanes selected by `lanes` (bit k = lane k;
  /// default all).  Per lane, the last injected fault on a net wins.  The
  /// override is applied during every evaluation so the fault propagates
  /// through downstream logic and state.  Re-settles immediately.
  void InjectFault(NetId net, FaultType type, std::uint64_t lanes = kAllLanes);
  /// Injects a whole fault population in one shot — one table rebuild and
  /// one settle instead of one per fault; this is what keeps per-pack
  /// setup cost flat in lane-parallel campaigns.
  void InjectFaults(const std::vector<LaneFault>& faults);
  /// Removes every fault and restores the un-faulted source values.
  void ClearFaults();
  /// Number of nets with at least one faulted lane.
  std::size_t ActiveFaults() const { return faults_.size(); }

 private:
  /// Per-net, per-lane override masks; the three masks are disjoint.
  struct FaultMasks {
    std::uint64_t stuck0 = 0;
    std::uint64_t stuck1 = 0;
    std::uint64_t invert = 0;
    bool Empty() const { return (stuck0 | stuck1 | invert) == 0; }
  };
  /// A faulted source net plus its retained un-faulted value.
  struct SourceFault {
    NetId net = kNoNet;
    FaultMasks masks;
    std::uint64_t raw = 0;
  };

  /// Allocates whole 64-byte cache lines, so that no vector load or store
  /// of the toggle kernel splits a line.
  template <typename T>
  struct LineAllocator {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};
    LineAllocator() = default;
    template <typename U>
    LineAllocator(const LineAllocator<U>&) noexcept {}  // NOLINT
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T* p, std::size_t n) noexcept {
      ::operator delete(p, n * sizeof(T), kAlign);
    }
    friend bool operator==(LineAllocator, LineAllocator) { return true; }
  };
  using Words = std::vector<std::uint64_t, LineAllocator<std::uint64_t>>;

  static std::uint64_t ApplyMasks(const FaultMasks& m, std::uint64_t v) {
    return (((v ^ m.invert) | m.stuck1) & ~m.stuck0);
  }
  static void CheckLane(std::size_t lane);
  void Init();
  /// Folds this Tick's net changes into toggle_counts_ (capture enabled).
  void AccumulateToggles();
  /// Snapshots the tracked nets' values as the next Tick's baseline,
  /// zeroes the counts and (re)starts counting.
  void ResetToggleBaseline();
  /// Un-faulted value of a source net (== words_[net] when not faulted).
  std::uint64_t RawOf(NetId net) const;
  /// Re-derives the evaluation-phase fault tables from faults_.
  void RebuildFaultTables();
  template <bool kHasCombFaults>
  void SettleStream();

  std::unique_ptr<const CompiledNetlist> owned_;
  const CompiledNetlist& compiled_;
  Words words_;
  std::vector<std::uint64_t> next_state_;
  /// Indices of the latch groups clocked on the current edge.
  std::vector<std::uint32_t> active_groups_;
  std::uint64_t cycles_ = 0;
  bool dirty_ = true;

  /// Toggle accounting: the number of tracked nets, the tracked nets
  /// (empty while every net is tracked, in NetId order, else padded with
  /// the zero slot to a whole kernel block), their previous post-Tick
  /// values (as many as the padded tracked words), and the per-lane counts
  /// of the most recent Tick.  words_ is padded so that every net's block
  /// lies inside it.
  bool toggle_capture_ = false;
  bool toggle_paused_ = false;
  bool toggle_all_nets_ = false;
  std::size_t toggle_tracked_ = 0;
  std::vector<NetId> toggle_nets_;
  Words toggle_prev_;
  std::array<std::uint32_t, kLanes> toggle_counts_{};

  /// Authoritative sparse fault store (ordered => deterministic tables).
  std::map<NetId, FaultMasks> faults_;
  /// Derived: faults on combinational nets, sorted by instruction index so
  /// the settle loop applies them with a single forward cursor.
  std::vector<std::pair<std::uint32_t, FaultMasks>> comb_faults_;
  /// Derived: faults on source nets (inputs, constants, DFF outputs).
  std::vector<SourceFault> source_faults_;
  /// Derived: (index into Dffs(), index into source_faults_) for faulted
  /// flip-flops, applied at latch commit.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dff_fault_hooks_;
};

/// One instantiation of the toggle-count kernel behind
/// BatchSimulator::ToggleCounts(), for one x86 ISA.  The kernel counts, per
/// lane, the tracked words that differ from their previous values: a
/// vertical Harley–Seal carry-save counter (Muła, Kurz and Lemire, "Faster
/// Population Counts Using AVX2 Instructions", Computer Journal 2018) over
/// GCC vectors of K 64-lane words, where K trees run interleaved.  Each
/// block of sixteen vectors leaves one vector of sixteens, which a
/// fixed-length, branch-free ripple adds into planes 4 and up: as many as
/// one tree's count can reach, never more than P = bit_width(tracked), so
/// any count stays exact.  Once per call the K trees are folded into one
/// by halves and its P planes unpacked into 32-bit counts, a vector of
/// lanes at a time.
struct ToggleKernel {
  const char* name;         ///< the ISA it is built for: "avx512f", ...
  std::size_t block_words;  ///< 16 vectors of K words
  bool supported;           ///< this CPU runs it
  /// counts[lane] = number of i < tracked with bit `lane` of word(i) ^
  /// prev[i] set, where word(i) = nets ? w[nets[i]] : w[i]; then prev[i] =
  /// word(i).  Reads word(i) and prev[i] for every i below `tracked`
  /// rounded up to a multiple of block_words; those past `tracked` must
  /// equal their prev.
  void (*count)(std::size_t tracked, const std::uint64_t* w,
                const NetId* nets, std::uint64_t* prev,
                std::uint32_t* counts);
};

/// Every kernel built in, widest first; the last runs on any CPU.
std::span<const ToggleKernel> ToggleKernels();
/// The kernel BatchSimulator uses: the widest one this CPU supports,
/// chosen once per process.
const ToggleKernel& ActiveToggleKernel();

}  // namespace mont::rtl
