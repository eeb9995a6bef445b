// gatesim_workload.cpp — gatesim-capture: sca::GateLevelCapture power
// traces of full-length modular exponentiations on the generated 64-bit
// MMMC netlist, 64 lanes per simulation pass.
//
// Every pass is checked independently: the same 64 exponentiations run
// through core::MmmcBatchSimDriver on a separately built netlist and each
// lane must equal BigUInt::ModExp; the simulated clock-edge count must be
// the closed form (bits + popcount(e)) * (3l + 5); every trace must have
// (bits + popcount(e)) * (3l + 4) samples, each with some toggles; and the
// noise-free trace digest of a base batch must repeat whenever that batch
// is captured again.  Each run also captures a fixed canary batch
// (canary.hpp) and compares its digest with the recorded known answer.
#include <cstdio>
#include <map>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "canary.hpp"
#include "core/engine.hpp"
#include "core/netlist_gen.hpp"
#include "core/sim_drivers.hpp"
#include "sca/trace.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using mont::bignum::BigUInt;
namespace obs = mont::obs;

constexpr std::size_t kModulusBits = 64;
constexpr std::size_t kLanes = 64;
constexpr std::size_t kBatches = 4;  ///< distinct base batches, captured in turn
constexpr double kPassLimitMs = 1000;  ///< latency limit of slo_ok_fraction
/// Building and compiling the netlist takes well under a millisecond, so
/// the set-up median is taken over many repeats.
constexpr int kCaptureSetupRepeats = 1001;

struct Inputs {
  BigUInt modulus;
  BigUInt exponent;
  std::vector<std::vector<BigUInt>> batches;
};

Inputs MakeInputs(std::uint64_t seed) {
  mont::bignum::RandomBigUInt rng(seed * 0x9e3779b97f4a7c15ull + 0x6a7e);
  Inputs inputs;
  inputs.modulus = rng.OddExactBits(kModulusBits);
  // Full length and balanced (Hamming weight bits/2), so every seed asks
  // for the same number of multiplications per exponentiation.
  inputs.exponent = rng.BalancedExactBits(kModulusBits);
  inputs.batches.resize(kBatches);
  for (auto& batch : inputs.batches) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      batch.push_back(rng.Below(inputs.modulus));
    }
  }
  return inputs;
}

std::uint64_t MmmCount(const BigUInt& exponent) {
  // pre-computation + (bits-1) squarings + (popcount-1) multiplies + post
  return exponent.BitLength() + exponent.PopCount();
}

/// FNV-1a over every sample but each trace's first: the START edge of a
/// capture counts toggles against whatever the circuit held before it, so
/// only the rest of a trace is a function of the batch alone.
std::uint64_t Digest(const mont::sca::TraceSet& traces) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t t = 0; t < traces.Count(); ++t) {
    const std::span<const double> trace = traces.Trace(t);
    for (std::size_t i = 1; i < trace.size(); ++i) {
      hash = (hash ^ static_cast<std::uint64_t>(trace[i])) * 0x100000001b3ull;
    }
  }
  return hash;
}

/// A trace whose samples sum to 0 recorded no toggles at all.
bool EveryTraceToggles(const mont::sca::TraceSet& traces) {
  for (std::size_t t = 0; t < traces.Count(); ++t) {
    if (!(traces.TraceEnergy(t) > 0)) return false;
  }
  return true;
}

/// The independent lane check: §4.5 exponentiation MMM by MMM on the
/// 64-lane MmmcBatchSimDriver (toggle capture off).
class ReferenceArray {
 public:
  explicit ReferenceArray(const BigUInt& modulus)
      : gen_(mont::core::BuildMmmcNetlist(modulus.BitLength())),
        driver_(gen_),
        ctx_(modulus) {
    driver_.LoadModulus(modulus);
    driver_.sim().SetInputAll(gen_.start, false);
    driver_.sim().Settle();
  }

  /// Returns false on a hung multiplication.
  bool ModExps(const std::vector<BigUInt>& bases, const BigUInt& exponent,
               std::vector<BigUInt>* out) {
    std::vector<BigUInt> m_mont, a;
    std::vector<BigUInt> r2(bases.size(), ctx_.RSquaredModN());
    if (!driver_.TryMultiply(bases, r2, &m_mont)) return false;
    a = m_mont;
    std::vector<BigUInt> next;  // TryMultiply clears its output first
    for (std::size_t i = exponent.BitLength() - 1; i-- > 0;) {
      if (!driver_.TryMultiply(a, a, &next)) return false;
      a.swap(next);
      if (exponent.Bit(i)) {
        if (!driver_.TryMultiply(a, m_mont, &next)) return false;
        a.swap(next);
      }
    }
    const std::vector<BigUInt> ones(bases.size(), BigUInt{1});
    return driver_.TryMultiply(a, ones, out);
  }
  std::uint64_t Cycles() { return driver_.sim().CycleCount(); }

 private:
  mont::core::MmmcNetlist gen_;
  mont::core::MmmcBatchSimDriver driver_;
  mont::bignum::BitSerialMontgomery ctx_;
};

struct PassTimes {
  std::vector<double> capture_ms;
  std::vector<double> reference_ms;
  std::uint64_t passes = 0;
  std::uint64_t ok_passes = 0;
  std::uint64_t slo_ok = 0;  ///< OK passes within kPassLimitMs
  std::uint64_t sim_cycles = 0;  ///< per pass (the same for every pass)
};

class CaptureLoop {
 public:
  CaptureLoop(const Inputs& inputs, mont::sca::GateLevelCapture& capture)
      : inputs_(inputs), capture_(capture), reference_(inputs.modulus) {}

  /// Runs passes for `seconds` (at least one); spans go to `tracer` when
  /// it is non-null.
  PassTimes Run(double seconds, obs::Tracer* tracer, RunOutcome& outcome) {
    PassTimes times;
    const std::uint64_t end_ns = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
      const std::size_t batch_index = next_batch_++ % kBatches;
      const std::vector<BigUInt>& bases = inputs_.batches[batch_index];
      const std::uint64_t id = NextRequestId();
      ++times.passes;

      const std::uint64_t t0 = NowNs();
      mont::sca::TraceSet traces;
      {
        ScopedSpan span(tracer, "sca.capture_pass", id, kGeneratorTrack);
        traces = capture_.CaptureModExps(bases, inputs_.exponent);
      }
      const std::uint64_t t1 = NowNs();
      std::vector<BigUInt> results;
      const std::uint64_t cycles_before = reference_.Cycles();
      bool ok = false;
      {
        ScopedSpan span(tracer, "rtl.reference_pass", id, kGeneratorTrack);
        ok = reference_.ModExps(bases, inputs_.exponent, &results);
      }
      const std::uint64_t t2 = NowNs();
      times.capture_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      times.reference_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
      times.sim_cycles = reference_.Cycles() - cycles_before;

      const std::uint64_t mmms = MmmCount(inputs_.exponent);
      const std::uint64_t l = inputs_.modulus.BitLength();
      if (!ok) outcome.Fail("reference array hung");
      if (times.sim_cycles != mmms * (3 * l + 5)) {
        ok = false;
        outcome.Fail("rtl.sim_cycles differs from (bits + popcount(e)) * (3l+5)");
      }
      if (traces.Count() != bases.size() || traces.Samples() != mmms * (3 * l + 4)) {
        ok = false;
        outcome.Fail("trace shape differs from 64 x (bits + popcount(e)) * (3l+4)");
      }
      if (!EveryTraceToggles(traces)) {
        ok = false;
        outcome.Fail("a trace recorded no toggles");
      }
      for (std::size_t lane = 0; ok && lane < bases.size(); ++lane) {
        if (results[lane] != BigUInt::ModExp(bases[lane], inputs_.exponent,
                                              inputs_.modulus)) {
          ok = false;
          outcome.Fail("lane " + std::to_string(lane) + " differs from BigUInt::ModExp");
        }
      }
      const std::uint64_t digest = Digest(traces);
      const auto [it, first] = digests_.emplace(batch_index, digest);
      if (!first && it->second != digest) {
        ok = false;
        outcome.Fail("noise-free trace digest changed between captures of one batch");
      }
      if (ok) {
        ++times.ok_passes;
        if (times.capture_ms.back() <= kPassLimitMs) ++times.slo_ok;
      }
    } while (NowNs() < end_ns);
    return times;
  }

  const std::map<std::size_t, std::uint64_t>& digests() const { return digests_; }

 private:
  const Inputs& inputs_;
  mont::sca::GateLevelCapture& capture_;
  ReferenceArray reference_;
  std::size_t next_batch_ = 0;
  std::map<std::size_t, std::uint64_t> digests_;
};

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return sum;
}

void Merge(const PassTimes& pass, PassTimes& into) {
  into.capture_ms.insert(into.capture_ms.end(), pass.capture_ms.begin(),
                         pass.capture_ms.end());
  into.reference_ms.insert(into.reference_ms.end(), pass.reference_ms.begin(),
                           pass.reference_ms.end());
  into.passes += pass.passes;
  into.ok_passes += pass.ok_passes;
  into.slo_ok += pass.slo_ok;
  into.sim_cycles = pass.sim_cycles;
}

void Count(const PassTimes& times, RunOutcome& outcome) {
  outcome.attempted += times.passes;
  outcome.failed += times.passes - times.ok_passes;
}

void PrintPasses(const char* label, const PassTimes& times) {
  std::printf("%s: %llu passes (%llu ok) of %zu traces; capture n=%zu p50=%.4f ms; "
              "reference p50=%.4f ms; %llu simulated cycles per pass\n",
              label, static_cast<unsigned long long>(times.passes),
              static_cast<unsigned long long>(times.ok_passes), kLanes,
              times.capture_ms.size(), Percentile(times.capture_ms, 500),
              Percentile(times.reference_ms, 500),
              static_cast<unsigned long long>(times.sim_cycles));
}

mont::sca::CaptureOptions NoiseFree() {
  mont::sca::CaptureOptions options;
  options.noise_sigma = 0.0;
  return options;
}

/// The known-answer check: the canary batch on its own noise-free capture
/// must reproduce the recorded digest.  It counts as one operation.
void CheckCanary(RunOutcome& outcome) {
  mont::sca::GateLevelCapture capture(BigUInt{kCanaryModulus}, NoiseFree());
  const std::vector<BigUInt> bases(kCanaryBases.begin(), kCanaryBases.end());
  const mont::sca::TraceSet traces = capture.CaptureModExps(bases, BigUInt{kCanaryExponent});
  const std::uint64_t digest = Digest(traces);
  std::printf("gatesim-capture: canary digest %016llx (recorded %016llx)\n",
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(kCanaryDigest));
  ++outcome.attempted;
  bool ok = true;
  if (digest != kCanaryDigest) {
    ok = false;
    outcome.Fail("canary trace digest differs from the known answer");
  }
  if (!EveryTraceToggles(traces)) {
    ok = false;
    outcome.Fail("a canary trace recorded no toggles");
  }
  if (!ok) ++outcome.failed;
}

}  // namespace

RunOutcome RunGatesimWorkload(const RunOptions& options) {
  RunOutcome outcome;
  const Inputs inputs = MakeInputs(options.seed);
  std::vector<double> setup_s;
  std::unique_ptr<mont::sca::GateLevelCapture> capture;
  for (int i = 0; i < kCaptureSetupRepeats; ++i) {
    capture.reset();
    const std::uint64_t t0 = NowNs();
    capture = std::make_unique<mont::sca::GateLevelCapture>(inputs.modulus, NoiseFree());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  CheckCanary(outcome);
  CaptureLoop loop(inputs, *capture);
  loop.Run(0, nullptr, outcome);  // warm-up pass: checked, not counted

  if (!options.trace) {
    const PassTimes times = loop.Run(options.seconds, nullptr, outcome);
    Count(times, outcome);
    PrintPasses("gatesim-capture", times);
    outcome.Set("setup_s", Percentile(setup_s, 500));
    outcome.Set("goodput_per_s",
                static_cast<double>(times.ok_passes * kLanes) / (Sum(times.capture_ms) / 1e3));
    outcome.Set("latency_p50_ms", Percentile(times.capture_ms, 500));
    outcome.Set("slo_ok_fraction",
                static_cast<double>(times.slo_ok) / static_cast<double>(times.passes));
    outcome.Set("model_cycles_per_op", static_cast<double>(times.sim_cycles));
    outcome.Set("peak_rss_mb", PeakRssMb());
    std::printf("gatesim-capture: setup %.4f s (median of %d); trace digests:",
                Percentile(setup_s, 500), kCaptureSetupRepeats);
    for (const auto& [batch, digest] : loop.digests()) {
      std::printf(" %zu=%016llx", batch, static_cast<unsigned long long>(digest));
    }
    std::printf("\n");
    return outcome;
  }

  obs::Tracer::Options tracer_options;
  tracer_options.start_enabled = false;
  obs::Tracer tracer(tracer_options);
  // Untraced and traced passes alternate, so drift in the host's speed
  // over the run cancels out of the overhead ratio.
  PassTimes untraced, traced;
  const std::uint64_t end_ns = NowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
  while (NowNs() < end_ns || traced.passes == 0) {
    tracer.set_enabled(false);
    Merge(loop.Run(0, nullptr, outcome), untraced);
    tracer.set_enabled(true);
    Merge(loop.Run(0, &tracer, outcome), traced);
  }
  Count(untraced, outcome);
  Count(traced, outcome);
  PrintPasses("untraced", untraced);
  PrintPasses("traced", traced);

  // Kernels at the capture's modulus size.
  mont::bignum::RandomBigUInt rng(options.seed + 0x6b);
  const BigUInt x = rng.Below(inputs.modulus);
  const BigUInt y = rng.Below(inputs.modulus);
  const mont::bignum::WordMontgomery word(inputs.modulus);
  const mont::bignum::BitSerialMontgomery bit_serial(inputs.modulus);
  const auto engine = mont::core::MakeEngine("bit-serial", inputs.modulus);
  BigUInt sink;
  outcome.Set("bignum.montmul_ns", KernelNs([&] { sink = word.Multiply(x, y); }));
  outcome.Set("bignum.bigmul_ns", KernelNs([&] { sink = x * y; }));
  outcome.Set("bignum.bitserial_mul_ns",
              KernelNs([&] { sink = bit_serial.MultiplyAlg2(x, y); }));
  outcome.Set("core.modexp_half_us",
              KernelNs([&] { sink = engine->ModExp(x, inputs.exponent); }) / 1e3);
  if (sink.IsZero()) std::printf("kernels: zero result\n");

  tracer.set_enabled(false);
  const TraceView view = ReadTrace(tracer);
  if (!options.trace_out.empty()) {
    if (tracer.WriteChromeJson(options.trace_out)) {
      std::printf("trace: %zu events written to %s\n", tracer.EventCount(),
                  options.trace_out.c_str());
    } else {
      outcome.Fail("cannot write trace to " + options.trace_out);
    }
  }
  const std::vector<double> capture_ns = view.SelfTimesOf("sca.capture_pass");
  const std::vector<double> reference_ns = view.SelfTimesOf("rtl.reference_pass");
  const double lane_cycles = static_cast<double>(kLanes * traced.sim_cycles);
  outcome.Set("rtl.lane_cycles_per_s",
              lane_cycles / (Percentile(reference_ns, 500) / 1e9));
  outcome.Set("rtl.capture_lane_cycles_per_s",
              lane_cycles / (Percentile(capture_ns, 500) / 1e9));
  outcome.Set("sca.pass_ms", Percentile(capture_ns, 500) / 1e6);
  outcome.Set("rtl.sim_cycles", static_cast<double>(traced.sim_cycles));
  outcome.Set("obs.trace_overhead_fraction",
              Percentile(traced.capture_ms, 500) / Percentile(untraced.capture_ms, 500) - 1);
  // Ledger: a capture pass against the plain simulation of the same
  // exponentiations; the remainder is toggle accounting and trace assembly.
  const std::vector<LedgerStage> stages = {
      {"rtl simulation (toggles off)", Percentile(reference_ns, 500)}};
  const Ledger ledger = BuildLedger(Percentile(capture_ns, 500), stages);
  std::printf("ledger (median ns): capture pass %.0f, rtl simulation %.0f, "
              "toggle accounting + trace assembly %.0f (%.4f)\n",
              ledger.end_to_end, ledger.stage_sum, ledger.unaccounted,
              ledger.unaccounted_fraction);
  outcome.Set("ledger.unaccounted_fraction", ledger.unaccounted_fraction);
  return outcome;
}

}  // namespace perfbench
