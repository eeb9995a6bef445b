// bench_obs — the observability overhead gate.
//
// The obs layer's contract is "always on, never felt": every ExpService /
// scheduler / engine counter now lives in the metrics registry, and the
// span tracer's emission sites are compiled into the hot path behind one
// `tracer != nullptr && tracer->enabled()` check.  This bench measures
// what that costs on the bursty multi-tenant stress workload (the same
// shape bench_exp_service gates scheduling on, driven through the
// DeterministicExecutor so the work per run is bit-identical):
//
//   baseline   no tracer attached      registry counters only
//   idle       tracer attached, off    + one relaxed load per event site
//   enabled    tracer attached, on     + ring-buffer emission
//
// THE GATE: idle must stay within 3% of baseline (best-of-N wall time,
// re-measured up to 3 times before failing, because a 3% bar on a shared
// CI box needs noise discipline).  Enabled-mode cost is reported but not
// gated — turning tracing on is a diagnostic decision, not a tax.  A
// sanitizer build reports the overhead as not measured instead of
// gating it.
//
// The enabled run's event tally, drop count and scheduler counters are
// deterministic per seed, so BENCH_obs.json doubles as a drift gate on
// the instrumentation itself: a new or vanished emission site shows up
// as a strict-tolerance failure, not a silent change.
//
// Writes BENCH_obs.json; --smoke shrinks the trace for `ctest -L perf`.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "core/exp_service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using mont::bignum::BigUInt;
using mont::core::DeterministicExecutor;
using mont::core::ExpService;
using mont::core::SchedulerKind;
using Clock = std::chrono::steady_clock;

struct TenantJob {
  std::size_t pool_index = 0;
  const char* engine = "";
  BigUInt base, exponent;
  std::uint64_t arrival = 0;
};

struct StressTrace {
  std::vector<BigUInt> pool;
  std::vector<TenantJob> jobs;
};

std::uint64_t CalibrateSoloTicks(const BigUInt& n, const BigUInt& base,
                                 const BigUInt& exponent) {
  ExpService::Options options;
  options.workers = 1;
  DeterministicExecutor calibrate(options);
  calibrate.SubmitAt(0, n, base, exponent);
  calibrate.RunUntilIdle();
  const auto& record = calibrate.Records().at(0);
  return record.finish_tick - record.start_tick;
}

// Same bursty mixed-tenant shape as bench_exp_service's stress section:
// 60% 128-bit default engine, 25% 256-bit, 15% 128-bit word-mont
// overrides, geometric bursts with exponential inter-burst gaps tuned
// for ~0.8 per-worker utilisation.
StressTrace MakeStressTrace(std::size_t jobs, std::size_t workers,
                            std::uint64_t seed) {
  StressTrace trace;
  mont::bignum::RandomBigUInt rng(seed);
  for (int i = 0; i < 2; ++i) trace.pool.push_back(rng.OddExactBits(128));
  for (int i = 0; i < 2; ++i) trace.pool.push_back(rng.OddExactBits(256));

  const std::uint64_t solo_128 = CalibrateSoloTicks(
      trace.pool[0], rng.Below(trace.pool[0]), rng.Below(trace.pool[0]));
  const std::uint64_t solo_256 = CalibrateSoloTicks(
      trace.pool[2], rng.Below(trace.pool[2]), rng.Below(trace.pool[2]));
  const double mean_cost = 0.75 * static_cast<double>(solo_128) +
                           0.25 * static_cast<double>(solo_256);
  const std::uint64_t mean_gap = static_cast<std::uint64_t>(
      mean_cost / (static_cast<double>(workers) * 0.8));

  std::uint64_t tick = 0;
  std::size_t burst_left = 0;
  for (std::size_t j = 0; j < jobs; ++j) {
    if (burst_left == 0) {
      burst_left = 1;
      while (burst_left < 4 && rng.Engine().NextBelow(2) == 0) ++burst_left;
      const double u =
          (static_cast<double>(rng.Engine().NextBelow(1u << 20)) + 1.0) /
          static_cast<double>(1u << 20);
      tick += static_cast<std::uint64_t>(
          -2.0 * static_cast<double>(mean_gap) * std::log(u));
    }
    --burst_left;
    TenantJob job;
    const std::uint64_t tenant = rng.Engine().NextBelow(20);
    if (tenant < 12) {
      job.pool_index = rng.Engine().NextBelow(2);
    } else if (tenant < 17) {
      job.pool_index = 2 + rng.Engine().NextBelow(2);
    } else {
      job.pool_index = rng.Engine().NextBelow(2);
      job.engine = "word-mont";
    }
    const BigUInt& n = trace.pool[job.pool_index];
    job.base = rng.Below(n);
    job.exponent = rng.Below(n);
    job.arrival = tick;
    trace.jobs.push_back(std::move(job));
  }
  return trace;
}

struct RunResult {
  double wall_seconds = 0;
  mont::obs::MetricsSnapshot metrics;  // the executor's registry
  std::size_t invariant_violations = 0;
};

/// One full stress replay through the DeterministicExecutor.  Submission
/// and execution are timed (both carry emission sites); construction is
/// not (registry binding is a one-time cost).
RunResult RunOnce(const StressTrace& trace, std::size_t workers,
                  mont::obs::Tracer* tracer) {
  ExpService::Options options;
  options.workers = workers;
  options.scheduler = SchedulerKind::kStealing;
  options.engine_cache_capacity = 6;
  options.tracer = tracer;
  DeterministicExecutor exec(options);

  const Clock::time_point begin = Clock::now();
  for (const TenantJob& job : trace.jobs) {
    mont::core::ExpJobOptions job_options;
    job_options.engine_name = job.engine;
    exec.SubmitAt(job.arrival, trace.pool[job.pool_index], job.base,
                  job.exponent, job_options);
  }
  exec.RunUntilIdle();
  RunResult result;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  result.metrics = exec.registry().Snapshot();
  result.invariant_violations =
      exec.registry().CheckInvariants(result.metrics).size();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t jobs = smoke ? 96 : 320;
  const std::size_t workers = 4;
  const std::size_t reps = smoke ? 3 : 5;
  const double gate = 0.03;

  std::printf("=== obs overhead gate: bursty stress (%zu jobs, %zu workers, "
              "best of %zu) ===\n\n", jobs, workers, reps);
  const StressTrace trace = MakeStressTrace(jobs, workers, 0x57e55eedull);

  // The gate measurement: baseline, idle and enabled reps are
  // interleaved (so a host-load drift hits all three estimators
  // equally), best-of-N minima are compared, and a failing attempt is
  // re-measured up to 3 times — a 3% bar on a shared CI box needs
  // noise discipline.
  double baseline_wall = 0;
  double idle_wall = 0;
  double enabled_wall = 0;
  double idle_overhead = 0;
  mont::obs::Tracer tracer;
  RunResult enabled_result;
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    baseline_wall = std::numeric_limits<double>::infinity();
    idle_wall = std::numeric_limits<double>::infinity();
    enabled_wall = std::numeric_limits<double>::infinity();
    mont::obs::Tracer idle_tracer;
    idle_tracer.set_enabled(false);
    for (std::size_t r = 0; r < reps; ++r) {
      baseline_wall =
          std::min(baseline_wall, RunOnce(trace, workers, nullptr).wall_seconds);
      idle_wall = std::min(idle_wall,
                           RunOnce(trace, workers, &idle_tracer).wall_seconds);
      tracer.Clear();
      RunResult result = RunOnce(trace, workers, &tracer);
      enabled_wall = std::min(enabled_wall, result.wall_seconds);
      enabled_result = result;
      events = tracer.EventCount();
      dropped = tracer.DroppedEvents();
    }
    idle_overhead = idle_wall / baseline_wall - 1.0;
    if (idle_overhead <= gate || mont::bench::kSanitizerBuild) break;
    std::printf("  (attempt %d: idle overhead %.2f%% > %.0f%%, "
                "re-measuring)\n", attempt + 1, idle_overhead * 100,
                gate * 100);
  }
  const double enabled_overhead = enabled_wall / baseline_wall - 1.0;

  std::printf("%-22s | %12s | %s\n", "configuration", "best wall s",
              "overhead vs baseline");
  std::printf("-----------------------+--------------+---------------------\n");
  std::printf("%-22s | %12.4f | %s\n", "baseline (no tracer)", baseline_wall,
              "-");
  std::printf("%-22s | %12.4f | %+.2f%%  (gate: <= %.0f%%%s)\n",
              "tracer idle", idle_wall, idle_overhead * 100, gate * 100,
              mont::bench::kSanitizerBuild
                  ? ": not measured in a sanitizer build"
                  : "");
  std::printf("%-22s | %12.4f | %+.2f%%  (reported, not gated)\n",
              "tracer enabled", enabled_wall, enabled_overhead * 100);
  std::printf("\nenabled run: %zu trace events (%llu dropped), "
              "%llu jobs completed, %zu invariant violation(s)\n",
              events, static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(
                  enabled_result.metrics.CounterValue("jobs.completed")),
              enabled_result.invariant_violations);

  const bool meets_gate =
      idle_overhead <= gate || mont::bench::kSanitizerBuild;
  std::vector<mont::bench::JsonRow> rows;
  rows.push_back({
      {"phase", "overhead"},
      {"jobs", jobs},
      {"workers", workers},
      {"reps", reps},
      {"baseline_wall_seconds", baseline_wall},
      {"idle_wall_seconds", idle_wall},
      {"enabled_wall_seconds", enabled_wall},
      {"idle_overhead_fraction", idle_overhead},
      {"enabled_overhead_fraction", enabled_overhead},
      {"gate_limit_fraction", gate},
      {"meets_gate", meets_gate},
  });
  // Deterministic per seed: a strict drift failure here means an
  // emission site or a scheduling decision changed, not the host.
  const mont::obs::MetricsSnapshot& metrics = enabled_result.metrics;
  rows.push_back({
      {"phase", "trace_census"},
      {"jobs", jobs},
      {"workers", workers},
      {"trace_events", events},
      {"trace_dropped", dropped},
      {"jobs_completed", metrics.CounterValue("jobs.completed")},
      {"pair_issues", metrics.CounterValue("issues.paired")},
      {"single_issues", metrics.CounterValue("issues.single")},
      {"steals", metrics.CounterValue("sched.steals")},
      {"holds", metrics.CounterValue("sched.holds")},
      {"invariant_violations", enabled_result.invariant_violations},
  });
  const std::string path =
      mont::bench::WriteBenchJson("obs", rows, {{"smoke", smoke}});
  std::printf("JSON written to %s\n", path.c_str());

  if (enabled_result.invariant_violations != 0) {
    std::printf("FAIL: metric conservation invariants violated\n");
    return 1;
  }
  if (!meets_gate) {
    std::printf("FAIL: idle-tracing overhead %.2f%% exceeds the %.0f%% "
                "gate\n", idle_overhead * 100, gate * 100);
    return 1;
  }
  if (mont::bench::kSanitizerBuild) {
    std::printf("OK: idle-tracing overhead not measured in a sanitizer "
                "build\n");
    return 0;
  }
  std::printf("OK: idle-tracing overhead %.2f%% within the %.0f%% gate\n",
              idle_overhead * 100, gate * 100);
  return 0;
}
