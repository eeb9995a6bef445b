// trace.hpp — gate-level power-trace capture for the side-channel lab.
//
// The paper's §5 argues algorithm choices on side-channel grounds; this
// module provides the measurement half of actually testing such claims on
// the reproduced hardware:
//
//  * TraceSet — a rectangular store of power traces (one row per captured
//    execution, one column per clock cycle) with the standard conditioning
//    utilities: Gaussian noise injection, sum-compression, and integer-
//    shift alignment.
//
//  * GateLevelCapture — hooks the compiled 64-lane simulator
//    (rtl::BatchSimulator toggle accounting) to the generated MMMC netlist
//    and records one power sample per clock cycle: the number of nets —
//    *all* nets of the circuit, not a register proxy — that switched on
//    that edge.  64 independent traces are captured per simulation pass,
//    one per lane, so trace acquisition runs at the batch engine's
//    throughput.  Capture units are single Montgomery multiplications or
//    whole left-to-right modular exponentiations (the §4.5 flow, which is
//    what the CPA engine in sca/attack.hpp attacks).
//
//    An exponentiation pass runs on core::MmmcModExpRunner over one
//    thread per CPU of the calling thread's affinity mask (at least 4
//    MMMs per thread; one thread when the simulator carries faults).
//    Each thread starts on its own range of MMMs and, once dry, steals
//    the back half of the largest range not yet run; it simulates each
//    range on its own simulator over the capture's one compiled netlist,
//    records that range's slice of the samples and writes its columns of
//    the traces.  An MMM's START edge loads every operand register and
//    clears the array, so the circuit's state after an MMM does not
//    depend on what ran before it; the runner checks that at every cut,
//    and the traces are bit-identical to a one-thread capture whatever
//    the CPU count or the order the ranges were stolen in.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/mmmc.hpp"
#include "core/netlist_gen.hpp"
#include "core/sim_drivers.hpp"
#include "rtl/batch_sim.hpp"
#include "rtl/compiled.hpp"

namespace mont::sca {

/// std::allocator whose value-less construct() default-initializes, so
/// resize() leaves doubles unwritten: for a buffer every element of which
/// is stored right after it is sized.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}  // NOLINT
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// Rectangular trace store: Count() traces of Samples() samples, row-major.
class TraceSet {
 public:
  TraceSet() = default;
  /// Takes ownership of `data`: `count` traces of `samples` samples,
  /// row-major (std::invalid_argument unless data.size() == count*samples).
  TraceSet(std::size_t count, std::size_t samples, std::vector<double> data);

  std::size_t Count() const { return count_; }
  std::size_t Samples() const { return samples_; }
  bool Empty() const { return count_ == 0; }

  /// Appends one trace.  The first Append fixes the sample count; later
  /// ones must match (std::invalid_argument otherwise).
  void Append(std::span<const double> trace);

  double At(std::size_t trace, std::size_t sample) const {
    return data_[trace * samples_ + sample];
  }
  std::span<const double> Trace(std::size_t trace) const {
    return {data_.data() + trace * samples_, samples_};
  }
  /// Copies column `sample` (one value per trace) into `out`.
  void Column(std::size_t sample, std::vector<double>& out) const;

  /// The first `count` traces (count must be <= Count()).
  TraceSet Head(std::size_t count) const;

  /// Per-sample mean over all traces.
  std::vector<double> MeanTrace() const;
  /// Sum of all samples of one trace (the "total energy" aggregate the
  /// TVLA suites compare).
  double TraceEnergy(std::size_t trace) const;

  /// Adds zero-mean Gaussian noise of standard deviation `sigma` to every
  /// sample (Box–Muller over the repo's deterministic xoshiro stream).
  void AddGaussianNoise(double sigma, bignum::Xoshiro256& rng);
  void AddGaussianNoise(double sigma, std::uint64_t seed);

  /// Sum-compresses every trace by `factor` consecutive samples (the
  /// standard acquisition-rate reduction; a trailing partial window is
  /// kept).  factor must be >= 1.
  TraceSet Compress(std::size_t factor) const;

  /// Aligns every trace to `reference` by the integer shift in
  /// [-max_shift, +max_shift] that maximizes correlation with it, padding
  /// with the trace's edge samples.  Recovers from constant-offset
  /// misalignment (e.g. trigger jitter re-injected for testing).
  TraceSet AlignTo(std::span<const double> reference,
                   std::size_t max_shift) const;

 private:
  friend class GateLevelCapture;
  /// `count` traces of `samples` samples, left unwritten.
  TraceSet(std::size_t count, std::size_t samples)
      : count_(count), samples_(samples), data_(count * samples) {}

  std::size_t count_ = 0;
  std::size_t samples_ = 0;
  std::vector<double, DefaultInitAllocator<double>> data_;
};

/// One standard Gaussian sample (Box–Muller) from the deterministic rng.
double GaussianSample(bignum::Xoshiro256& rng);

/// The TVLA statistic over two trace populations: Welch's t computed per
/// sample (column by column), returning the peak |t|.  |t| > 4.5 at any
/// sample is the conventional "leakage detected" verdict — far more
/// sensitive than comparing whole-trace energies, which wash out
/// sample-local differences.  Sample counts must match.
double WelchTPeak(const TraceSet& a, const TraceSet& b);

/// Capture configuration.
struct CaptureOptions {
  /// Standard deviation of Gaussian noise added to every captured sample
  /// (0 = noise-free, the simulator's exact switching counts).
  double noise_sigma = 0.0;
  /// Seed of the capture's noise stream (deterministic; successive
  /// captures on one GateLevelCapture draw from the same stream).
  std::uint64_t noise_seed = 0x7ace5e7u;
  /// Count only the MMMC datapath register nets (the t/c0/c1 probe
  /// buses) instead of every net — the legacy PowerTrace proxy's view.
  bool datapath_only = false;
  /// Count only the nets the static taint pass (analysis::AnalyzeTaint)
  /// places in the secret cone (Blinded or Secret).  This is the
  /// attacker's best case: every sampled toggle is key-dependent, none of
  /// the Clean control/counter switching dilutes the signal — useful for
  /// bounding CPA/DPA data complexity from above.  Mutually exclusive
  /// with datapath_only (std::invalid_argument if both are set).
  bool secret_cone_only = false;
  /// Field of the generated circuit (kGf2 builds the dual-field netlist
  /// with fsel tied to GF(2^m); the modulus is then the field polynomial).
  core::FieldMode field = core::FieldMode::kGfP;
};

/// Gate-level trace capture over the generated MMMC (Fig. 3) netlist.
/// One instance owns one compiled circuit; captures may be issued
/// repeatedly and each batches up to 64 executions per simulation pass.
class GateLevelCapture {
 public:
  /// Builds, compiles, and resets the MMMC for `modulus` (odd, > 1; for
  /// kGf2 the field polynomial with f(0) = 1).
  explicit GateLevelCapture(bignum::BigUInt modulus,
                            const CaptureOptions& options = {});

  std::size_t l() const { return gen_.l; }
  const bignum::BigUInt& Modulus() const { return modulus_; }
  const CaptureOptions& Options() const { return options_; }
  /// Nets contributing to each power sample.
  std::size_t TrackedNetCount() const {
    return runner_.sim().TrackedNetCount();
  }
  /// Samples one multiplication contributes: the paper's 3l+4 cycles,
  /// from the START edge (operand load) to DONE inclusive.
  std::size_t SamplesPerMultiplication() const { return 3 * gen_.l + 4; }

  /// Captures one trace per (x, y) operand pair — xs[k]*ys[k]*R^-1 on
  /// lane k, 64 pairs per simulation pass, any number of pairs total.
  /// Operands must be inside the chainable window [0, 2N).  Each trace
  /// has SamplesPerMultiplication() samples.
  TraceSet CaptureMultiplications(std::span<const bignum::BigUInt> xs,
                                  std::span<const bignum::BigUInt> ys);

  /// Captures one trace per base of the full §4.5 modular exponentiation
  /// base^exponent mod N run MMM-by-MMM on the netlist (pre-computation,
  /// square/conditional-multiply scan, post-processing).  All executions
  /// share `exponent`, so the MMM schedule is lane-uniform and 64 bases
  /// capture per pass; each pass is spread over the calling thread's
  /// CPUs (see the file comment).  Bases must be < N; exponent must be
  /// nonzero.  Trace length = (mmm count) * SamplesPerMultiplication().
  /// GF(p) only.
  TraceSet CaptureModExps(std::span<const bignum::BigUInt> bases,
                          const bignum::BigUInt& exponent);
  /// Threads each CaptureModExps(_, exponent) pass from the calling
  /// thread runs on.
  std::size_t ModExpWindows(const bignum::BigUInt& exponent) const {
    return runner_.Windows(core::AffinityCpuCount(), exponent);
  }

  /// Montgomery context of the captured circuit (R = 2^(l+2)); the
  /// attack engine replays hypotheses through the same arithmetic.
  const bignum::BitSerialMontgomery& Context() const { return ctx_; }

 private:
  /// The one capture path: `count` executions of `mmms` multiplications
  /// each, 64 per simulation pass.  run_pass(at, n, samples, transpose)
  /// runs executions [at, at+n), recording into `samples` (sample-major),
  /// and calls transpose(begin, end) once samples [begin, end) are in;
  /// that copies them into the row-major result.
  template <typename RunPass>
  TraceSet Capture(std::size_t count, std::size_t mmms, RunPass run_pass);
  /// A simulator over compiled_ with the modulus loaded and the options'
  /// toggle selection enabled.
  std::unique_ptr<rtl::BatchSimulator> MakeSimulator() const;

  CaptureOptions options_;
  bignum::BigUInt modulus_;
  core::MmmcNetlist gen_;
  rtl::CompiledNetlist compiled_;
  /// Nets each sample counts (nullopt: every net).
  std::optional<std::vector<rtl::NetId>> tracked_;
  bignum::BitSerialMontgomery ctx_;
  core::MmmcModExpRunner runner_;
  bignum::Xoshiro256 noise_rng_;
  /// One pass's samples, sample-major; kept across calls.
  std::vector<std::uint32_t> pass_;
};

}  // namespace mont::sca
