// bench_server — the signing-service front-end under load: goodput
// versus offered load, shed fraction, and latency percentiles.
//
// Three sections:
//
//   * admission_model — single-threaded, so the token-bucket arithmetic
//     is exact: a tenant with an 8-token burst and an (effectively)
//     never-refilling bucket offered 24 sequential requests yields
//     exactly 8 signatures and 16 typed BACKPRESSURE refusals.  These
//     counts are model-derived and drift-gated strictly.
//   * deadline_model — every request carries a 1-tick relative deadline
//     (the service clock is nanoseconds), so all of them are cancelled
//     at claim time: DEADLINE_EXCEEDED responses and the job-level
//     cancelled counter are exact.
//   * sweep — closed-loop load generator: T client threads (T doubling
//     per level) each push K requests through the full wire codec with
//     no retries.  Reported goodput (verified signatures/sec), offered
//     rate, shed fraction and p50/p95/p99 latency are host-throughput
//     measurements: the JSON keys carry wall/per_sec markers so
//     bench_drift_check tracks the row identity strictly but skips the
//     host-dependent numbers.
//
// The bench gates itself: goodput past saturation must not collapse
// (highest-load goodput >= 50% of peak goodput), no bad signature may
// ever be released, and the job-level counters must conserve.  Any
// violation exits nonzero, so `ctest -L perf` catches an overload
// regression without needing a calibrated host.
//
// Writes BENCH_server.json (bench_json.hpp); --smoke bounds the sweep
// for the ctest `perf` label.  `--trace-out FILE` attaches an
// obs::Tracer to the sweep's services and dumps the request-lifecycle
// trace as chrome://tracing JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "bignum/random.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "crypto/rsa.hpp"
#include "server/client.hpp"
#include "server/keystore.hpp"
#include "server/signing_service.hpp"
#include "server/transport.hpp"
#include "server/wire.hpp"

namespace {

namespace server = mont::server;
using Clock = std::chrono::steady_clock;

// Far beyond any run's duration: the bucket never refills mid-bench.
constexpr std::uint64_t kNeverRefillTicks = 3'600'000'000'000ull;

const mont::crypto::RsaKeyPair& BenchKey() {
  static const mont::crypto::RsaKeyPair key = [] {
    mont::bignum::RandomBigUInt rng(0xbe9c45e12ull);
    return mont::crypto::GenerateRsaKey(512, rng);
  }();
  return key;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// --- admission_model: exact token-bucket outcome ---------------------------

mont::bench::JsonRow AdmissionModelRow() {
  server::Keystore keystore;
  server::TenantConfig tenant;
  tenant.name = "bucketed";
  tenant.burst = 8;
  tenant.refill_period_ticks = kNeverRefillTicks;
  keystore.AddTenant(1, tenant);
  keystore.AddKey(1, 1, BenchKey());
  server::SigningService service(std::move(keystore));
  server::InProcTransport transport(service);

  const std::size_t offered = 24;
  std::size_t ok = 0, backpressure = 0;
  for (std::size_t i = 0; i < offered; ++i) {
    server::SignRequest request;
    request.request_id = i + 1;
    request.tenant_id = 1;
    request.key_id = 1;
    request.message = {'a', static_cast<std::uint8_t>(i)};
    const auto response = transport.Call(request).get();
    if (!response) continue;
    if (response->status == server::StatusCode::kOk) ++ok;
    if (response->status == server::StatusCode::kRejectedBackpressure) {
      ++backpressure;
    }
  }
  service.Wait();
  std::printf("admission_model: %zu offered -> %zu ok, %zu backpressure\n",
              offered, ok, backpressure);
  return {{"stage", "admission_model"},
          {"offered", static_cast<unsigned long long>(offered)},
          {"ok", static_cast<unsigned long long>(ok)},
          {"backpressure", static_cast<unsigned long long>(backpressure)},
          {"backpressure_fraction",
           static_cast<double>(backpressure) / static_cast<double>(offered)}};
}

// --- deadline_model: every request expires before dispatch -----------------

mont::bench::JsonRow DeadlineModelRow() {
  server::Keystore keystore;
  server::TenantConfig tenant;
  tenant.name = "deadlined";
  keystore.AddTenant(1, tenant);
  keystore.AddKey(1, 1, BenchKey());
  server::SigningService service(std::move(keystore));
  server::InProcTransport transport(service);

  const std::size_t offered = 8;
  std::size_t deadline_exceeded = 0;
  for (std::size_t i = 0; i < offered; ++i) {
    server::SignRequest request;
    request.request_id = i + 1;
    request.tenant_id = 1;
    request.key_id = 1;
    request.deadline_ticks = 1;  // expired by the time a worker claims it
    request.message = {'d', static_cast<std::uint8_t>(i)};
    const auto response = transport.Call(request).get();
    if (response &&
        response->status == server::StatusCode::kDeadlineExceeded) {
      ++deadline_exceeded;
    }
  }
  service.Wait();
  const unsigned long long jobs_cancelled =
      service.StatsSnapshot().CounterValue("jobs.cancelled");
  std::printf("deadline_model: %zu offered -> %zu DEADLINE_EXCEEDED "
              "(%llu jobs cancelled in-scheduler)\n",
              offered, deadline_exceeded, jobs_cancelled);
  return {{"stage", "deadline_model"},
          {"offered", static_cast<unsigned long long>(offered)},
          {"deadline_exceeded",
           static_cast<unsigned long long>(deadline_exceeded)},
          {"jobs_cancelled", jobs_cancelled}};
}

// --- sweep: closed-loop goodput vs offered load ----------------------------

struct SweepPoint {
  std::size_t threads = 0;
  std::size_t offered = 0;
  std::size_t ok = 0;
  std::size_t refused = 0;  // typed backpressure/shed
  double wall_seconds = 0;
  double goodput_per_sec = 0;
  double offered_per_sec = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
};

SweepPoint RunSweepLevel(std::size_t threads, std::size_t per_thread,
                         std::size_t workers, mont::obs::Tracer* tracer) {
  server::Keystore keystore;
  server::TenantConfig tenant;
  tenant.name = "load";
  tenant.burst = 1u << 20;  // the bucket is not the bottleneck here
  tenant.max_in_flight = 2 * workers;
  keystore.AddTenant(1, tenant);
  keystore.AddKey(1, 1, BenchKey());
  server::SigningService::Options options;
  options.service.workers = workers;
  options.service.tracer = tracer;
  options.admission.queue_high_watermark = 2 * workers;
  server::SigningService service(std::move(keystore), options);
  server::InProcTransport transport(service);

  SweepPoint point;
  point.threads = threads;
  point.offered = threads * per_thread;
  std::vector<std::vector<double>> latencies(threads);
  std::vector<std::size_t> oks(threads, 0), refusals(threads, 0);
  std::vector<std::thread> pool;
  const auto start = Clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        server::SignRequest request;
        request.request_id = t * per_thread + i + 1;
        request.tenant_id = 1;
        request.key_id = 1;
        request.message = {static_cast<std::uint8_t>(t),
                           static_cast<std::uint8_t>(i)};
        const auto sent = Clock::now();
        const auto response = transport.Call(request).get();
        const double micros =
            std::chrono::duration<double, std::micro>(Clock::now() - sent)
                .count();
        if (!response) continue;
        if (response->status == server::StatusCode::kOk) {
          ++oks[t];
          latencies[t].push_back(micros);
        } else if (response->status ==
                       server::StatusCode::kRejectedBackpressure ||
                   response->status == server::StatusCode::kShedOverload) {
          ++refusals[t];
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  service.Wait();
  point.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all;
  for (std::size_t t = 0; t < threads; ++t) {
    point.ok += oks[t];
    point.refused += refusals[t];
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
  }
  std::sort(all.begin(), all.end());
  point.p50_us = Percentile(all, 0.50);
  point.p95_us = Percentile(all, 0.95);
  point.p99_us = Percentile(all, 0.99);
  point.goodput_per_sec =
      point.wall_seconds > 0
          ? static_cast<double>(point.ok) / point.wall_seconds
          : 0;
  point.offered_per_sec =
      point.wall_seconds > 0
          ? static_cast<double>(point.offered) / point.wall_seconds
          : 0;

  const mont::obs::MetricsSnapshot metrics = service.StatsSnapshot();
  if (metrics.CounterValue("server.bad_signatures_released") != 0) {
    std::fprintf(stderr, "FATAL: bad signature released under load\n");
    std::exit(1);
  }
  const unsigned long long submitted = metrics.CounterValue("jobs.submitted");
  const unsigned long long completed = metrics.CounterValue("jobs.completed");
  const unsigned long long cancelled = metrics.CounterValue("jobs.cancelled");
  if (submitted != completed + cancelled) {
    std::fprintf(stderr, "FATAL: job counters do not conserve (%llu != "
                         "%llu + %llu)\n",
                 submitted, completed, cancelled);
    std::exit(1);
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  mont::obs::Tracer tracer;
  mont::obs::Tracer* const trace_ptr = trace_out.empty() ? nullptr : &tracer;
  const std::size_t workers = 2;
  const std::size_t per_thread = smoke ? 6 : 24;
  const std::vector<std::size_t> levels =
      smoke ? std::vector<std::size_t>{1, 2, 4, 8}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};

  std::printf("=== bench_server: signing service under load ===\n\n");
  std::vector<mont::bench::JsonRow> rows;
  rows.push_back(AdmissionModelRow());
  rows.push_back(DeadlineModelRow());

  std::printf("\nsweep: %zu workers, %zu requests/thread, closed loop\n",
              workers, per_thread);
  std::printf("%8s %9s %7s %8s %12s %10s %10s %10s\n", "threads", "offered",
              "ok", "refused", "goodput/s", "p50 us", "p95 us", "p99 us");
  std::vector<SweepPoint> points;
  for (const std::size_t threads : levels) {
    const SweepPoint point =
        RunSweepLevel(threads, per_thread, workers, trace_ptr);
    std::printf("%8zu %9zu %7zu %8zu %12.1f %10.1f %10.1f %10.1f\n",
                point.threads, point.offered, point.ok, point.refused,
                point.goodput_per_sec, point.p50_us, point.p95_us,
                point.p99_us);
    const double shed_fraction =
        point.offered > 0 ? static_cast<double>(point.refused) /
                                static_cast<double>(point.offered)
                          : 0;
    rows.push_back(
        {{"stage", "sweep"},
         {"threads", static_cast<unsigned long long>(point.threads)},
         {"offered", static_cast<unsigned long long>(point.offered)},
         {"workers", static_cast<unsigned long long>(workers)},
         // Host-throughput measurements: wall/per_sec keys are exempt
         // from the drift gate (bench_drift_check.cpp's skip class).
         {"ok_per_sec_goodput", point.goodput_per_sec},
         {"offered_per_sec", point.offered_per_sec},
         {"shed_fraction_wall", shed_fraction},
         {"p50_wall_us", point.p50_us},
         {"p95_wall_us", point.p95_us},
         {"p99_wall_us", point.p99_us}});
    points.push_back(point);
  }

  // Self-gate: goodput past saturation must degrade gracefully, not
  // collapse.  (Admission sheds excess load, so the service keeps
  // signing near its capacity even when offered 16x more.)
  double peak = 0;
  for (const SweepPoint& point : points) {
    peak = std::max(peak, point.goodput_per_sec);
  }
  const double last = points.back().goodput_per_sec;
  const bool no_collapse = peak <= 0 || last >= 0.5 * peak;
  std::printf("\ngoodput peak %.1f/s, at max offered load %.1f/s -> %s\n",
              peak, last, no_collapse ? "no collapse" : "COLLAPSE");

  const std::string path =
      mont::bench::WriteBenchJson("server", rows, {{"smoke", smoke}});
  std::printf("wrote %s\n", path.c_str());
  if (trace_ptr != nullptr && tracer.WriteChromeJson(trace_out)) {
    std::printf("trace: %zu events -> %s (load in ui.perfetto.dev)\n",
                tracer.EventCount(), trace_out.c_str());
  }
  return no_collapse ? 0 : 1;
}
