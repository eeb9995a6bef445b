// bench_sca — the side-channel lab's reportable numbers, quantifying the
// paper's §5 argument end to end:
//
//   1. timing channel: Algorithm 1's data-dependent subtraction vs the
//      constant 3l+4 of Algorithm 2 / the MMMC;
//   2. TVLA: fixed-vs-random Welch-t peak on gate-level power traces of
//      RSA private exponentiations, unblinded vs base-blinded;
//   3. CPA/DPA: exponent-recovery rate and measurements-to-disclosure per
//      leakage model and distinguisher, on unprotected and blinded
//      executions;
//   4. capture throughput: traces/s of 1-lane vs 64-lane gate-level
//      capture (the batch engine is what makes the lab affordable);
//   5. capture overhead: a 64-lane pass of 64-bit ModExp captures against
//      plain simulation of the same exponentiations, with the thread
//      pinned to one CPU so the capture runs on one thread, as the plain
//      simulation does.  THE GATE: capture may take at most 2.2x the
//      plain simulation (interleaved best-of-N, as bench_obs gates
//      tracing); the binary exits 1 above it.  A sanitizer build reports
//      the ratio as not measured and gates only the results;
//   6. capture windows (informational): a 64-bit-exponent capture spread
//      over one thread per CPU of the process, each starting on its own
//      range of MMMs and stealing the back half of the largest range not
//      yet run once dry, against the capture on one thread — threads used
//      and wall speedup, both host-dependent.  The traces must match.
//
// Prints the toggle kernel the process picked (stdout only: the JSON
// stays comparable across runner CPUs).  Emits BENCH_sca.json
// (bench_json.hpp flat schema) for CI trend tracking; --smoke shrinks
// every population but section 6's exponent for the ctest -L perf run.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "bench_json.hpp"
#include "bignum/exp_schedule.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/netlist_gen.hpp"
#include "core/sim_drivers.hpp"
#include "crypto/rsa.hpp"
#include "rtl/batch_sim.hpp"
#include "sca/analysis.hpp"
#include "sca/attack.hpp"
#include "sca/trace.hpp"

namespace {

using mont::bignum::BigUInt;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

std::vector<BigUInt> RandomBases(mont::bignum::RandomBigUInt& rng,
                                 const BigUInt& bound, std::size_t count) {
  std::vector<BigUInt> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng.Below(bound));
  return out;
}

/// Pins the calling thread to the first CPU of its affinity mask and
/// returns the mask it had, for RestoreAffinity.
cpu_set_t PinToOneCpu() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  sched_getaffinity(0, sizeof mask, &mask);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &mask)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  sched_setaffinity(0, sizeof one, &one);
  return mask;
}

void RestoreAffinity(const cpu_set_t& mask) {
  sched_setaffinity(0, sizeof mask, &mask);
}

bool SameTraces(const mont::sca::TraceSet& a, const mont::sca::TraceSet& b) {
  if (a.Count() != b.Count() || a.Samples() != b.Samples()) return false;
  for (std::size_t t = 0; t < a.Count(); ++t) {
    for (std::size_t s = 0; s < a.Samples(); ++s) {
      if (a.At(t, s) != b.At(t, s)) return false;
    }
  }
  return true;
}

/// The §4.5 schedule executed MMM by MMM on the 64-lane driver with toggle
/// capture off: the plain simulation a capture pass is measured against.
/// Returns one result per base (empty on a hung multiplication).
std::vector<BigUInt> PlainModExps(mont::core::MmmcBatchSimDriver& driver,
                                  const mont::bignum::BitSerialMontgomery& ctx,
                                  std::span<const mont::bignum::ExpStep> steps,
                                  const std::vector<BigUInt>& bases) {
  using Lanes = std::vector<BigUInt>;
  mont::bignum::ExpExecutor<Lanes> run(
      steps, bases, Lanes(bases.size(), ctx.RSquaredModN()),
      Lanes(bases.size(), BigUInt{1}));
  bool hung = false;
  run.Run([&](const Lanes& x, const Lanes& y) {
    Lanes out;
    hung = hung || !driver.TryMultiply(x, y, &out);
    return out;
  });
  if (hung) return {};
  return run.Result();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string_view(argv[1]) == "--smoke";
  mont::bignum::RandomBigUInt rng(0x5cabe7c4u);
  std::vector<mont::bench::JsonRow> rows;

  std::printf("=== side-channel lab: §5 quantified at gate level%s ===\n",
              smoke ? " (smoke)" : "");
  std::printf("toggle kernel: %s\n\n", mont::rtl::ActiveToggleKernel().name);

  // --- 1. timing channel ----------------------------------------------------
  {
    const std::size_t l = 64;
    const int samples = smoke ? 200 : 2000;
    const BigUInt n = rng.OddExactBits(l);
    const mont::sca::TimingOracle oracle(n);
    std::vector<double> alg1_cycles;
    std::size_t subtractions = 0;
    for (int i = 0; i < samples; ++i) {
      const BigUInt x = rng.Below(n);
      const BigUInt y = rng.Below(n);
      alg1_cycles.push_back(static_cast<double>(oracle.Alg1Cycles(x, y)));
      subtractions += oracle.Alg1SubtractionTaken(x, y) ? 1 : 0;
    }
    const auto stats = mont::sca::Summarize(alg1_cycles);
    const double subtraction_rate =
        static_cast<double>(subtractions) / samples;
    std::printf("timing, l=%zu, %d multiplications:\n", l, samples);
    std::printf("  Algorithm 1: mean %.1f cycles, std %.2f, subtraction "
                "taken %.1f%%\n",
                stats.mean, std::sqrt(stats.variance),
                100.0 * subtraction_rate);
    std::printf("  Algorithm 2: %llu cycles for every input\n\n",
                static_cast<unsigned long long>(oracle.Alg2Cycles()));
    rows.push_back({{"section", "timing"},
                    {"l", static_cast<unsigned long long>(l)},
                    {"samples", samples},
                    {"alg1_mean_cycles", stats.mean},
                    {"alg1_std_cycles", std::sqrt(stats.variance)},
                    {"alg1_subtraction_rate", subtraction_rate},
                    {"alg2_cycles", static_cast<unsigned long long>(
                                        oracle.Alg2Cycles())}});
  }

  // --- 2. TVLA fixed-vs-random on RSA, unblinded vs blinded ------------------
  {
    const std::size_t per_class = smoke ? 8 : 32;
    const mont::crypto::RsaKeyPair key = mont::crypto::GenerateRsaKey(32, rng);
    const BigUInt fixed = rng.Below(key.n);
    const std::vector<BigUInt> fixed_class(per_class, fixed);
    const auto random_class = RandomBases(rng, key.n, per_class);
    const auto blind = [&](const BigUInt& c) {
      return mont::crypto::BlindRsaBase(c, key.e, key.n, rng);
    };
    std::vector<BigUInt> fixed_blinded, random_blinded;
    for (std::size_t i = 0; i < per_class; ++i) {
      fixed_blinded.push_back(blind(fixed));
      random_blinded.push_back(blind(random_class[i]));
    }
    mont::sca::GateLevelCapture capture(key.n);
    const double t_unblinded = mont::sca::WelchTPeak(
        capture.CaptureModExps(fixed_class, key.d),
        capture.CaptureModExps(random_class, key.d));
    const double t_blinded = mont::sca::WelchTPeak(
        capture.CaptureModExps(fixed_blinded, key.d),
        capture.CaptureModExps(random_blinded, key.d));
    std::printf("TVLA (l=%zu RSA, %zu traces/class, threshold 4.5):\n",
                capture.l(), per_class);
    std::printf("  unblinded |t| = %8.1f  -> %s\n", std::abs(t_unblinded),
                std::abs(t_unblinded) > 4.5 ? "LEAKS" : "no evidence");
    std::printf("  blinded   |t| = %8.1f  -> %s\n\n", std::abs(t_blinded),
                std::abs(t_blinded) > 4.5 ? "LEAKS" : "no evidence");
    rows.push_back({{"section", "tvla"},
                    {"l", static_cast<unsigned long long>(capture.l())},
                    {"traces_per_class",
                     static_cast<unsigned long long>(per_class)},
                    {"welch_t_unblinded", std::abs(t_unblinded)},
                    {"welch_t_blinded", std::abs(t_blinded)},
                    {"threshold", 4.5},
                    {"unblinded_leaks", std::abs(t_unblinded) > 4.5},
                    {"blinded_leaks", std::abs(t_blinded) > 4.5}});
  }

  // --- 3. CPA/DPA exponent recovery -----------------------------------------
  {
    const std::size_t l = 16;
    const std::size_t exponent_bits = smoke ? 12 : 16;
    const std::size_t budget = smoke ? 32 : 64;
    const std::size_t hw_budget = smoke ? 64 : 128;
    const BigUInt n = rng.OddExactBits(l);
    const BigUInt d = rng.ExactBits(exponent_bits);
    const auto bases = RandomBases(rng, n, std::max(budget, hw_budget));
    std::vector<BigUInt> blinded_bases;
    for (const BigUInt& c : bases) {
      blinded_bases.push_back(
          mont::crypto::BlindRsaBase(c, BigUInt{65537}, n, rng));
    }
    mont::sca::GateLevelCapture capture(n);
    const mont::sca::TraceSet traces = capture.CaptureModExps(bases, d);
    const mont::sca::TraceSet blinded =
        capture.CaptureModExps(blinded_bases, d);
    std::printf("CPA/DPA (l=%zu, %zu-bit exponent):\n", l, exponent_bits);
    std::printf("  %-10s %-20s %7s %9s %5s\n", "leakage", "distinguisher",
                "traces", "recovered", "mtd");
    struct Scenario {
      mont::sca::Leakage leakage;
      mont::sca::Distinguisher distinguisher;
      std::size_t budget;
    };
    std::vector<Scenario> scenarios = {
        {mont::sca::Leakage::kHammingDistanceStates,
         mont::sca::Distinguisher::kPearsonCpa, budget},
        {mont::sca::Leakage::kHammingDistanceStates,
         mont::sca::Distinguisher::kDifferenceOfMeans, budget},
        {mont::sca::Leakage::kHammingWeightOutput,
         mont::sca::Distinguisher::kPearsonCpa, hw_budget},
    };
    for (const Scenario& scenario : scenarios) {
      mont::sca::AttackOptions options;
      options.leakage = scenario.leakage;
      options.distinguisher = scenario.distinguisher;
      const mont::sca::CpaAttack attack(n, options);
      const auto head = traces.Head(scenario.budget);
      const auto result = attack.Recover(
          head, {bases.data(), scenario.budget}, d.BitLength());
      const std::size_t mtd = attack.MeasurementsToDisclosure(
          head, {bases.data(), scenario.budget}, d, 0.9, 8);
      const double fraction = result.RecoveredFraction(d);
      std::printf("  %-10s %-20s %7zu %8.1f%% %5zu\n",
                  mont::sca::LeakageName(scenario.leakage),
                  mont::sca::DistinguisherName(scenario.distinguisher),
                  scenario.budget, 100.0 * fraction, mtd);
      rows.push_back(
          {{"section", "cpa"},
           {"l", static_cast<unsigned long long>(l)},
           {"exponent_bits", static_cast<unsigned long long>(exponent_bits)},
           {"leakage", mont::sca::LeakageName(scenario.leakage)},
           {"distinguisher",
            mont::sca::DistinguisherName(scenario.distinguisher)},
           {"trace_budget", static_cast<unsigned long long>(scenario.budget)},
           {"recovered_fraction", fraction},
           {"measurements_to_disclosure",
            static_cast<unsigned long long>(mtd)}});
    }
    // Countermeasure closure at the default model's budget.
    const mont::sca::CpaAttack attack(n);
    const auto blinded_result = attack.Recover(
        blinded.Head(budget), {bases.data(), budget}, d.BitLength());
    const double blinded_fraction = blinded_result.RecoveredFraction(d);
    const std::size_t blinded_mtd = attack.MeasurementsToDisclosure(
        blinded.Head(budget), {bases.data(), budget}, d, 0.9, 8);
    std::printf("  blinded executions, same attack:      %8.1f%% %5zu "
                "(chance; blinding closes the channel)\n\n",
                100.0 * blinded_fraction, blinded_mtd);
    rows.push_back({{"section", "cpa_blinded"},
                    {"l", static_cast<unsigned long long>(l)},
                    {"exponent_bits",
                     static_cast<unsigned long long>(exponent_bits)},
                    {"trace_budget", static_cast<unsigned long long>(budget)},
                    {"recovered_fraction", blinded_fraction},
                    {"measurements_to_disclosure",
                     static_cast<unsigned long long>(blinded_mtd)}});
  }

  // --- 4. capture throughput: 1-lane vs 64-lane ------------------------------
  {
    const std::size_t l = smoke ? 16 : 32;
    const std::size_t passes = smoke ? 2 : 8;
    const BigUInt n = rng.OddExactBits(l);
    const BigUInt two_n = n << 1;
    mont::sca::GateLevelCapture capture(n);
    const auto xs = RandomBases(rng, two_n, 64);
    const auto ys = RandomBases(rng, two_n, 64);
    // Scalar: one stimulus per simulation pass.
    const auto scalar_begin = Clock::now();
    std::size_t scalar_traces = 0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (std::size_t i = 0; i < 8; ++i) {
        const std::vector<BigUInt> x1{xs[i]}, y1{ys[i]};
        capture.CaptureMultiplications(x1, y1);
        ++scalar_traces;
      }
    }
    const double scalar_seconds = Seconds(scalar_begin, Clock::now());
    // Batched: 64 stimuli per pass.
    const auto batch_begin = Clock::now();
    std::size_t batch_traces = 0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      batch_traces += capture.CaptureMultiplications(xs, ys).Count();
    }
    const double batch_seconds = Seconds(batch_begin, Clock::now());
    const double scalar_rate =
        static_cast<double>(scalar_traces) / scalar_seconds;
    const double batch_rate = static_cast<double>(batch_traces) / batch_seconds;
    std::printf("capture throughput (l=%zu, %zu nets, %zu samples/trace):\n",
                capture.l(), capture.TrackedNetCount(),
                capture.SamplesPerMultiplication());
    std::printf("  1-lane : %10.0f traces/s\n", scalar_rate);
    std::printf("  64-lane: %10.0f traces/s  (%.1fx)\n\n", batch_rate,
                batch_rate / scalar_rate);
    rows.push_back({{"section", "capture_throughput"},
                    {"l", static_cast<unsigned long long>(capture.l())},
                    {"nets", static_cast<unsigned long long>(
                                 capture.TrackedNetCount())},
                    {"samples_per_trace",
                     static_cast<unsigned long long>(
                         capture.SamplesPerMultiplication())},
                    {"scalar_traces_per_s", scalar_rate},
                    {"batch_traces_per_s", batch_rate},
                    {"batch_speedup", batch_rate / scalar_rate}});
  }

  // --- 5. capture overhead: 64-bit ModExp capture vs plain simulation ------
  bool meets_gate = true;
  {
    const std::size_t l = 64;
    const std::size_t exponent_bits = smoke ? 16 : 64;
    const std::size_t reps = 5;
    const double gate = 2.2;
    const BigUInt n = rng.OddExactBits(l);
    const BigUInt exponent = rng.BalancedExactBits(exponent_bits);
    const auto bases = RandomBases(rng, n, 64);
    mont::sca::GateLevelCapture capture(n);
    const auto gen = mont::core::BuildMmmcNetlist(l);
    mont::core::MmmcBatchSimDriver plain(gen);
    plain.LoadModulus(n);
    plain.sim().SetInputAll(gen.start, false);
    plain.sim().Settle();
    const mont::bignum::BitSerialMontgomery ctx(n);
    std::vector<mont::bignum::ExpStep> steps;
    mont::bignum::BuildExpSchedule(mont::bignum::ExpMode::kAlg3, exponent,
                                   &steps);
    const std::size_t samples =
        steps.size() * capture.SamplesPerMultiplication();
    // One CPU: the capture runs one window, so the ratio measures toggle
    // accounting and trace assembly against plain simulation.
    const cpu_set_t all_cpus = PinToOneCpu();
    // Capture and plain passes alternate, so host-load drift hits both
    // minima equally; a failing attempt is re-measured up to 3 times.
    double capture_seconds = 0;
    double plain_seconds = 0;
    double ratio = 0;
    bool correct = true;
    for (int attempt = 0; attempt < 3; ++attempt) {
      capture_seconds = std::numeric_limits<double>::infinity();
      plain_seconds = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < reps; ++r) {
        const auto capture_begin = Clock::now();
        const mont::sca::TraceSet traces =
            capture.CaptureModExps(bases, exponent);
        capture_seconds =
            std::min(capture_seconds, Seconds(capture_begin, Clock::now()));
        const auto plain_begin = Clock::now();
        const std::vector<BigUInt> results =
            PlainModExps(plain, ctx, steps, bases);
        plain_seconds =
            std::min(plain_seconds, Seconds(plain_begin, Clock::now()));
        correct = correct && traces.Count() == bases.size() &&
                  traces.Samples() == samples &&
                  results.size() == bases.size();
        for (std::size_t lane = 0; correct && lane < bases.size(); ++lane) {
          correct = results[lane] == BigUInt::ModExp(bases[lane], exponent, n);
        }
      }
      ratio = capture_seconds / plain_seconds;
      if (ratio <= gate || mont::bench::kSanitizerBuild) break;
      std::printf("  (attempt %d: capture/plain %.2f > %.1f, re-measuring)\n",
                  attempt + 1, ratio, gate);
    }
    RestoreAffinity(all_cpus);
    meets_gate = correct && (ratio <= gate || mont::bench::kSanitizerBuild);
    const double traces = static_cast<double>(bases.size());
    std::printf("capture overhead (l=%zu ModExp, %zu-bit exponent, %zu "
                "lanes, %zu nets, best of %zu):\n",
                l, exponent.BitLength(), bases.size(),
                capture.TrackedNetCount(), reps);
    std::printf("  plain simulation: %10.1f traces/s\n",
                traces / plain_seconds);
    std::printf("  capture         : %10.1f traces/s  (%.2fx the plain "
                "time; gate <= %.1fx%s)%s\n\n",
                traces / capture_seconds, ratio, gate,
                mont::bench::kSanitizerBuild
                    ? ": not measured in a sanitizer build"
                    : "",
                correct ? "" : "  WRONG RESULT");
    rows.push_back({{"section", "capture_overhead"},
                    {"l", static_cast<unsigned long long>(l)},
                    {"exponent_bits", static_cast<unsigned long long>(
                                          exponent.BitLength())},
                    {"lanes", static_cast<unsigned long long>(bases.size())},
                    {"nets", static_cast<unsigned long long>(
                                 capture.TrackedNetCount())},
                    {"reps", static_cast<unsigned long long>(reps)},
                    {"capture_traces_per_s", traces / capture_seconds},
                    {"sim_traces_per_s", traces / plain_seconds},
                    {"capture_over_sim_wall_ratio", ratio},
                    {"gate_limit_ratio", gate},
                    {"meets_gate", meets_gate}});

    // --- 6. capture windows: stealing threads vs one (informational) -----
    // A 64-bit exponent (96 MMMs) in --smoke too: with 16 bits each thread
    // ran 6 MMMs, too few for the speedup to rise above host noise.
    const BigUInt window_exponent =
        smoke ? rng.BalancedExactBits(64) : exponent;
    // A capture's first sample counts the START edge's toggles against the
    // net state the previous capture left, so both sides start after one
    // untimed capture of this exponent.
    capture.CaptureModExps(bases, window_exponent);
    double windowed_seconds = std::numeric_limits<double>::infinity();
    double one_window_seconds = std::numeric_limits<double>::infinity();
    bool same = true;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto windowed_begin = Clock::now();
      const mont::sca::TraceSet windowed =
          capture.CaptureModExps(bases, window_exponent);
      windowed_seconds =
          std::min(windowed_seconds, Seconds(windowed_begin, Clock::now()));
      PinToOneCpu();
      const auto one_begin = Clock::now();
      const mont::sca::TraceSet one_window =
          capture.CaptureModExps(bases, window_exponent);
      one_window_seconds =
          std::min(one_window_seconds, Seconds(one_begin, Clock::now()));
      RestoreAffinity(all_cpus);
      same = same && SameTraces(windowed, one_window);
    }
    const std::size_t windows = capture.ModExpWindows(window_exponent);
    const double speedup = one_window_seconds / windowed_seconds;
    meets_gate = meets_gate && same;
    std::printf("capture windows (%zu-bit exponent, same capture, best of "
                "%zu):\n",
                window_exponent.BitLength(), reps);
    std::printf("  1 thread : %10.1f traces/s\n", traces / one_window_seconds);
    std::printf("  %zu threads: %10.1f traces/s  (%.2fx)%s\n\n", windows,
                traces / windowed_seconds, speedup,
                same ? "" : "  TRACES DIFFER");
    rows.push_back({{"section", "capture_windows"},
                    {"l", static_cast<unsigned long long>(l)},
                    {"exponent_bits", static_cast<unsigned long long>(
                                          window_exponent.BitLength())},
                    {"lanes", static_cast<unsigned long long>(bases.size())},
                    {"host_windows", static_cast<unsigned long long>(windows)},
                    {"one_window_traces_per_s", traces / one_window_seconds},
                    {"windowed_traces_per_s", traces / windowed_seconds},
                    {"windowed_over_one_window_wall_speedup", speedup},
                    {"traces_match", same}});
  }

  const std::string path = mont::bench::WriteBenchJson(
      "sca", rows, {{"smoke", smoke}, {"lanes", 64}});
  std::printf("wrote %s\n", path.c_str());
  if (!meets_gate) {
    std::printf("FAIL: capture overhead above the gate (or a wrong "
                "result, or windowed traces differ)\n");
    return 1;
  }
  return 0;
}
