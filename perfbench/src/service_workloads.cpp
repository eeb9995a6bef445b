// service_workloads.cpp — rsa512-mix and bitserial-paired:
// PKCS#1 v1.5 signing traffic through server::SigningService, driven by
// one load-generator thread over the wire codec.
//
// Each request travels encode -> frame -> FrameReader -> decode into
// SigningService::HandleRequest, and its response back through the same
// codec on the responding thread.  The generator checks every OK
// signature as it arrives, independently, with division-based
// BigUInt::ModExp(sig, e, n) == EMSA(message); after a phase drains, the
// registry's invariants and server.bad_signatures_released == 0 are
// asserted.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "crypto/pkcs1.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/keystore.hpp"
#include "server/signing_service.hpp"
#include "server/wire.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using mont::bignum::BigUInt;
using mont::bignum::Xoshiro256;
namespace crypto = mont::crypto;
namespace obs = mont::obs;
namespace server = mont::server;

constexpr std::size_t kWorkers = 2;
/// Closed loops keep this many requests in flight.
constexpr std::size_t kOutstanding = 4;
/// Set-up (key generation dominates) is timed ServiceSpec::setup_repeats
/// times per run, each time on its own set-up seed, and reported as the
/// median.  The set-up seeds are the same for every --seed: how long the
/// prime search runs depends on the seed (one 2048-bit key took from 0.44
/// to 2.07 s over 24 seeds), so timing the run's own key search would
/// measure the seed's luck rather than the program.  The service that takes the traffic is
/// then built from --seed, untimed.
constexpr std::uint64_t kSetupSeedBase = 0x5e7;
/// Goodput is the median rate over this many stretches of a run.
constexpr std::size_t kGoodputStretches = 20;
/// An open-loop run whose generator sent its p99 request later than this
/// after its due time measured the generator, not the program.  It equals
/// rsa512-mix's latency limit: the generator alone may not use that up.
constexpr double kMaxGeneratorLagMs = 5.0;

struct KeySpec {
  std::uint32_t tenant = 0;
  std::uint32_t key_id = 0;
  std::size_t bits = 0;
};

struct ServiceSpec {
  std::string engine;
  std::vector<KeySpec> keys;
  bool open_loop = false;
  /// Timed set-ups per run: more where one set-up is short, so that a
  /// burst of host noise cannot cover most of them.
  int setup_repeats = 5;
  double rate_per_s = 0;        ///< open loop: Poisson arrival rate
  std::size_t min_message = 32;
  std::size_t max_message = 256;
  bool log_uniform_sizes = false;
  std::uint64_t deadline_ns = 0;  ///< relative deadline of sign requests
  unsigned stats_every = 0;       ///< 1 in N requests is a STATS read
  double slo_ms = 0;              ///< latency limit of slo_ok_fraction
  std::uint64_t salt = 0;         ///< separates the workloads' seed streams
};

ServiceSpec SpecFor(const std::string& name) {
  ServiceSpec spec;
  if (name == "rsa512-mix") {
    spec.engine = "word-mont";
    for (std::uint32_t tenant = 1; tenant <= 8; ++tenant) {
      for (std::uint32_t key = 1; key <= 4; ++key) {
        spec.keys.push_back({tenant, key, 512});
      }
    }
    spec.open_loop = true;
    spec.rate_per_s = 1500;
    spec.min_message = 16;
    spec.max_message = 16 * 1024;
    spec.log_uniform_sizes = true;
    spec.deadline_ns = 250'000'000;
    spec.stats_every = 100;
    spec.slo_ms = 5;
    spec.salt = 0x512;
  } else if (name == "bitserial-paired") {
    spec.engine = "bit-serial";
    // Three 512-bit keys and one 768-bit key, drawn uniformly: a 3:1 mix.
    spec.keys = {{1, 1, 512}, {1, 2, 512}, {1, 3, 512}, {1, 4, 768}};
    spec.slo_ms = 200;
    spec.salt = 0xb175;
    spec.setup_repeats = 25;  // about 70 ms each
  } else {
    throw std::invalid_argument("unknown service workload " + name);
  }
  return spec;
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finaliser: nearby seeds give unrelated streams.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Uniform01(Xoshiro256& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

// --- request plans ----------------------------------------------------------

struct RequestPlan {
  bool stats = false;
  std::uint32_t key_index = 0;
  std::size_t length = 0;
  std::uint64_t message_seed = 0;
};

/// Draws request plans (kind, key, message size, message seed) from the
/// workload seed.  The message bytes are a pure function of the plan, so
/// they are regenerated for the correctness check instead of stored.
class Planner {
 public:
  Planner(const ServiceSpec& spec, std::uint64_t seed)
      : spec_(spec), rng_(Mix(seed, spec.salt + 1)) {}

  RequestPlan Next() {
    RequestPlan plan;
    plan.stats = spec_.stats_every != 0 && rng_.NextBelow(spec_.stats_every) == 0;
    plan.key_index = static_cast<std::uint32_t>(rng_.NextBelow(spec_.keys.size()));
    if (spec_.log_uniform_sizes) {
      const double lo = std::log(static_cast<double>(spec_.min_message));
      const double hi = std::log(static_cast<double>(spec_.max_message));
      plan.length = static_cast<std::size_t>(
          std::lround(std::exp(lo + (hi - lo) * Uniform01(rng_))));
    } else {
      plan.length =
          spec_.min_message + rng_.NextBelow(spec_.max_message - spec_.min_message + 1);
    }
    plan.message_seed = rng_.Next();
    return plan;
  }

  /// Seconds to the next Poisson arrival.
  double NextGapSeconds() { return -std::log1p(-Uniform01(rng_)) / spec_.rate_per_s; }

 private:
  const ServiceSpec& spec_;
  Xoshiro256 rng_;
};

std::vector<std::uint8_t> MessageBytes(const RequestPlan& plan) {
  Xoshiro256 rng(plan.message_seed);
  std::vector<std::uint8_t> bytes(plan.length);
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    const std::uint64_t word = rng.Next();
    for (std::size_t b = 0; b < 8 && i + b < bytes.size(); ++b) {
      bytes[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return bytes;
}

// --- the service under test -------------------------------------------------

struct ServiceRig {
  std::vector<crypto::RsaKeyPair> keys;  ///< parallel to ServiceSpec::keys
  std::unique_ptr<obs::Registry> registry = std::make_unique<obs::Registry>();
  std::unique_ptr<server::SigningService> service;  // destroyed first
};

/// The benchmark's set-up: key generation from the seed, the keystore,
/// and the SigningService.
std::unique_ptr<ServiceRig> BuildRig(const ServiceSpec& spec, std::uint64_t seed,
                                     obs::Tracer* tracer) {
  auto rig = std::make_unique<ServiceRig>();
  mont::bignum::RandomBigUInt rng(Mix(seed, spec.salt));
  server::Keystore keystore;
  std::set<std::uint32_t> tenants;
  for (const KeySpec& key : spec.keys) tenants.insert(key.tenant);
  for (const std::uint32_t tenant : tenants) {
    server::TenantConfig config;
    config.name = "tenant-" + std::to_string(tenant);
    config.burst = 1;
    config.refill_period_ticks = 0;  // unlimited rate: load, not policy
    config.max_in_flight = 1u << 20;
    keystore.AddTenant(tenant, config);
  }
  for (const KeySpec& spec_key : spec.keys) {
    rig->keys.push_back(crypto::GenerateRsaKey(spec_key.bits, rng));
    keystore.AddKey(spec_key.tenant, spec_key.key_id, rig->keys.back());
  }
  server::SigningService::Options options;
  options.service.workers = kWorkers;
  options.service.engine_name = spec.engine;
  options.service.registry = rig->registry.get();
  options.service.tracer = tracer;
  rig->service =
      std::make_unique<server::SigningService>(std::move(keystore), options);
  return rig;
}

// --- load generation --------------------------------------------------------

/// A response as it came back through the wire codec.
struct Completion {
  std::uint64_t id = 0;
  std::uint64_t done_ns = 0;
  bool decoded = false;
  server::StatusCode status = server::StatusCode::kMalformedRequest;
  std::vector<std::uint8_t> payload;
};

/// Responses handed from the responding threads to the generator.
class Collector {
 public:
  void Push(Completion completion) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ready_.push_back(std::move(completion));
    }
    cv_.notify_one();
  }
  /// Moves every completion so far to the back of `out`, waiting until
  /// `deadline_ns` for at least one.
  void TakeInto(std::deque<Completion>& out, std::uint64_t deadline_ns) {
    std::unique_lock<std::mutex> lk(mu_);
    const auto deadline = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline_ns));
    cv_.wait_until(lk, deadline, [this] { return !ready_.empty(); });
    std::move(ready_.begin(), ready_.end(), std::back_inserter(out));
    ready_.clear();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Completion> ready_;
};

struct SentRequest {
  RequestPlan plan;
  std::uint64_t due_ns = 0;  ///< open loop: scheduled send time
  std::uint64_t sent_ns = 0;
};

/// Latency runs from the due time in an open loop (so a stall is charged
/// to every request it delayed) and from the send in a closed loop.
std::uint64_t LatencyStartNs(const ServiceSpec& spec, const SentRequest& sent) {
  return spec.open_loop ? sent.due_ns : sent.sent_ns;
}

/// What one phase measured.  Each response is checked as it arrives and
/// only two numbers per request are kept, so the benchmark's own share of
/// the process's memory stays small.
struct PhaseReport {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;  ///< verified responses (signatures and STATS)
  std::uint64_t ok_signatures = 0;
  std::uint64_t slo_ok = 0;
  double window_s = 0;
  std::vector<double> signed_s;  ///< completion of each verified signature
  std::uint64_t engine_cycles = 0;  ///< registry engine.cycles over the phase
  std::vector<double> latency_ms;   ///< verified requests only
  std::vector<double> lag_ms;       ///< send time minus ready time
};

/// Responses are checked in the generator's idle time; an open loop stops
/// checking this long before its next request is due.
constexpr std::uint64_t kCheckSlackNs = 300'000;

class LoadGenerator {
 public:
  LoadGenerator(const ServiceSpec& spec, ServiceRig& rig, Planner& planner)
      : spec_(spec), rig_(rig), planner_(planner) {}

  /// Runs one phase of `seconds`; `tracer` non-null records the
  /// benchmark's spans.  Returns after every request has its response and
  /// every response has been checked; failed checks go to `outcome`.
  PhaseReport Run(double seconds, obs::Tracer* tracer, RunOutcome& outcome) {
    tracer_ = tracer;
    outcome_ = &outcome;
    PhaseReport report;
    report_ = &report;
    const std::uint64_t cycles_before =
        rig_.registry->Snapshot().CounterValue("engine.cycles");
    start_ns_ = NowNs();
    last_done_ns_ = start_ns_;
    const std::uint64_t end_ns = start_ns_ + static_cast<std::uint64_t>(seconds * 1e9);
    if (spec_.open_loop) {
      RunOpenLoop(end_ns);
    } else {
      RunClosedLoop(end_ns);
    }
    // Every request gets exactly one response; a missing one is reported
    // rather than waited for forever.
    const std::uint64_t drain_limit_ns = NowNs() + 60'000'000'000ull;
    while (!in_flight_.empty() && NowNs() < drain_limit_ns) {
      collector_.TakeInto(unchecked_, NowNs() + 1'000'000'000);
      while (!unchecked_.empty()) CheckNext();
    }
    for (const auto& [id, sent] : in_flight_) {
      outcome.Fail("request " + std::to_string(id) + ": no response");
    }
    in_flight_.clear();
    rig_.service->Wait();
    report.window_s = static_cast<double>(last_done_ns_ - start_ns_) / 1e9;
    report.engine_cycles =
        rig_.registry->Snapshot().CounterValue("engine.cycles") - cycles_before;
    CheckRegistry(outcome);
    report_ = nullptr;
    return report;
  }

 private:
  struct Prepared {
    SentRequest record;
    server::SignRequest request;
  };

  double Ms(std::uint64_t ns) const {
    return static_cast<double>(ns - start_ns_) / 1e6;
  }

  Prepared Prepare() {
    Prepared next;
    next.record.plan = planner_.Next();
    const KeySpec& key = spec_.keys[next.record.plan.key_index];
    next.request.type = next.record.plan.stats ? server::RequestType::kStats
                                               : server::RequestType::kSign;
    next.request.request_id = NextRequestId();
    next.request.tenant_id = key.tenant;
    next.request.key_id = key.key_id;
    next.request.deadline_ticks = next.record.plan.stats ? 0 : spec_.deadline_ns;
    if (!next.record.plan.stats) next.request.message = MessageBytes(next.record.plan);
    return next;
  }

  /// Sends through the wire codec into HandleRequest.  `ready_ns` is when
  /// the generator could have sent it: the due time (open loop) or the
  /// completion that freed its slot (closed loop).
  void Send(Prepared& prepared, std::uint64_t ready_ns) {
    SentRequest& record = prepared.record;
    record.sent_ns = NowNs();
    report_->lag_ms.push_back(Lateness(Ms(ready_ns), Ms(record.sent_ns)));
    ++report_->attempted;
    const std::uint64_t id = prepared.request.request_id;
    const std::uint64_t clock_start_ns = LatencyStartNs(spec_, record);
    in_flight_.emplace(id, record);
    std::vector<std::uint8_t> payload;
    {
      ScopedSpan span(tracer_, "bench.wire.request", id, kGeneratorTrack);
      const std::vector<std::uint8_t> frame =
          server::Frame(server::EncodeSignRequest(prepared.request));
      request_reader_.Feed(frame);
      payload = request_reader_.Next().value_or(std::vector<std::uint8_t>{});
    }
    obs::Tracer* const tracer = tracer_;
    Collector* const collector = &collector_;
    auto respond = [tracer, collector, id, clock_start_ns](server::SignResponse response) {
      Completion completion;
      completion.id = id;
      {
        ScopedSpan span(tracer, "bench.wire.response", id, kResponseTrack);
        server::FrameReader reader;
        reader.Feed(server::Frame(server::EncodeSignResponse(response)));
        const auto payload = reader.Next();
        auto decoded = payload ? server::DecodeSignResponse(*payload) : std::nullopt;
        if (decoded && decoded->request_id == id) {
          completion.decoded = true;
          completion.status = decoded->status;
          completion.payload = std::move(decoded->payload);
        }
      }
      completion.done_ns = NowNs();
      if (tracer != nullptr && tracer->enabled()) {
        tracer->Complete("bench.request", id, kResponseTrack, clock_start_ns,
                         completion.done_ns);
      }
      collector->Push(std::move(completion));
    };
    {
      ScopedSpan span(tracer_,
                      record.plan.stats ? "bench.server.stats" : "bench.server.handle",
                      id, kGeneratorTrack);
      rig_.service->HandleRequest(std::move(payload), std::move(respond));
    }
  }

  /// The independent check of one OK response: a STATS read must carry
  /// the registry snapshot; a signature must pass the division-based
  /// BigUInt::ModExp(sig, e, n) == EMSA(message), never a Montgomery kernel.
  bool Verified(const RequestPlan& plan, const std::vector<std::uint8_t>& payload) const {
    if (plan.stats) {
      const std::string json(payload.begin(), payload.end());
      return json.find("\"jobs.submitted\"") != std::string::npos;
    }
    const crypto::RsaKeyPair& key = rig_.keys[plan.key_index];
    const std::size_t modulus_bytes = (key.n.BitLength() + 7) / 8;
    const BigUInt signature = BigUInt::FromBytesBE(payload);
    const BigUInt em = crypto::EmsaPkcs1V15Encode(MessageBytes(plan), modulus_bytes);
    return payload.size() == modulus_bytes && signature < key.n &&
           BigUInt::ModExp(signature, key.e, key.n) == em;
  }

  /// Checks the oldest unchecked response and records it.  A refused or
  /// late response is not OK; it counts as failed, not as wrong.
  void CheckNext() {
    const Completion done = std::move(unchecked_.front());
    unchecked_.pop_front();
    last_done_ns_ = std::max(last_done_ns_, done.done_ns);
    const auto it = in_flight_.find(done.id);
    if (it == in_flight_.end()) {
      outcome_->Fail("response to unknown request " + std::to_string(done.id));
      return;
    }
    const SentRequest sent = it->second;
    in_flight_.erase(it);
    if (!done.decoded) {
      outcome_->Fail("request " + std::to_string(done.id) + ": no decodable response");
      return;
    }
    if (done.status != server::StatusCode::kOk) return;
    if (!Verified(sent.plan, done.payload)) {
      outcome_->Fail("request " + std::to_string(done.id) + ": OK response failed the check");
      return;
    }
    ++report_->ok;
    if (!sent.plan.stats) {
      ++report_->ok_signatures;
      report_->signed_s.push_back(Ms(done.done_ns) / 1e3);
    }
    const double latency_ms =
        LatencyFromDue(Ms(LatencyStartNs(spec_, sent)), Ms(done.done_ns));
    report_->latency_ms.push_back(latency_ms);
    if (latency_ms <= spec_.slo_ms) ++report_->slo_ok;
  }

  /// After a drained phase: the registry's invariants (jobs.conservation)
  /// hold and no bad signature was released.
  void CheckRegistry(RunOutcome& outcome) const {
    const obs::MetricsSnapshot snapshot = rig_.service->StatsSnapshot();
    for (const std::string& violation : rig_.registry->CheckInvariants(snapshot)) {
      outcome.Fail("invariant: " + violation);
    }
    if (snapshot.CounterValue("server.bad_signatures_released") != 0) {
      outcome.Fail("server.bad_signatures_released != 0");
    }
  }

  void RunClosedLoop(std::uint64_t end_ns) {
    // When each free slot was freed, oldest first; the first sends are
    // ready at the phase start.
    std::deque<std::uint64_t> free_slots(kOutstanding, start_ns_);
    Prepared next = Prepare();
    while (NowNs() < end_ns) {
      if (!free_slots.empty()) {
        Send(next, free_slots.front());
        free_slots.pop_front();
        next = Prepare();
      } else if (!unchecked_.empty()) {
        CheckNext();  // every slot is busy: check meanwhile
      } else {
        collector_.TakeInto(unchecked_, end_ns);
        for (const Completion& completion : unchecked_) {
          free_slots.push_back(completion.done_ns);
        }
      }
    }
  }

  void RunOpenLoop(std::uint64_t end_ns) {
    double due_s = planner_.NextGapSeconds();
    std::uint64_t returned_ns = 0;  // when the previous HandleRequest returned
    while (true) {
      const std::uint64_t due_ns =
          start_ns_ + static_cast<std::uint64_t>(due_s * 1e9);
      if (due_ns >= end_ns) break;
      Prepared next = Prepare();
      next.record.due_ns = due_ns;
      // Check responses while the next request is not yet due, so that
      // checking does not delay the schedule.  The take does not wait: a
      // generator asleep on the collector would have the program's
      // responding thread wake it for every response.
      while (NowNs() + kCheckSlackNs < due_ns) {
        if (unchecked_.empty()) collector_.TakeInto(unchecked_, 0);
        if (unchecked_.empty()) break;
        CheckNext();
      }
      // Sleeping (not spinning) leaves the cores to the program; the
      // wake-up overshoot is part of the measured generator lag.
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due_ns)));
      // Time the generator spent inside the program's synchronous path is
      // the program's (it shows in the latency from due time); the
      // generator's own lag starts when that call returned.
      Send(next, std::max(due_ns, returned_ns));
      returned_ns = NowNs();
      due_s += planner_.NextGapSeconds();
    }
  }

  const ServiceSpec& spec_;
  ServiceRig& rig_;
  Planner& planner_;
  obs::Tracer* tracer_ = nullptr;
  RunOutcome* outcome_ = nullptr;
  PhaseReport* report_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t last_done_ns_ = 0;
  Collector collector_;
  server::FrameReader request_reader_;
  std::unordered_map<std::uint64_t, SentRequest> in_flight_;
  std::deque<Completion> unchecked_;
};

void PrintPhase(const char* label, const PhaseReport& report) {
  const TailPercentile tail = HighestSupportedTail(report.latency_ms);
  const TailPercentile lag = HighestSupportedTail(report.lag_ms);
  std::printf("%s: %llu attempted, %llu ok (%llu signatures) in %.3f s; "
              "latency n=%zu p50=%.4f ms p%.1f=%.4f ms; generator lag p50=%.4f ms "
              "p%.1f=%.4f ms\n",
              label, static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.ok),
              static_cast<unsigned long long>(report.ok_signatures), report.window_s,
              report.latency_ms.size(), Percentile(report.latency_ms, 500),
              tail.per_mille / 10.0, tail.value, Percentile(report.lag_ms, 500),
              lag.per_mille / 10.0, lag.value);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

// --- per-layer measurements -------------------------------------------------

/// Word-level, schoolbook and bit-serial multiply kernels at the size of
/// the workload's first key's CRT half.
void MeasureKernels(const ServiceRig& rig, std::uint64_t seed, RunOutcome& outcome) {
  const BigUInt& p = rig.keys.front().p;
  mont::bignum::RandomBigUInt rng(Mix(seed, 0x6b));
  const BigUInt x = rng.Below(p);
  const BigUInt y = rng.Below(p);
  const mont::bignum::WordMontgomery word(p);
  const mont::bignum::BitSerialMontgomery bit_serial(p);
  BigUInt sink;
  outcome.Set("bignum.montmul_ns", KernelNs([&] { sink = word.Multiply(x, y); }));
  outcome.Set("bignum.bigmul_ns", KernelNs([&] { sink = x * y; }));
  outcome.Set("bignum.bitserial_mul_ns",
              KernelNs([&] { sink = bit_serial.MultiplyAlg2(x, y); }));
  if (sink.IsZero()) std::printf("kernels: zero product\n");
}

/// Replays sampled sign requests stage by stage on the replay track:
/// wire -> EMSA -> engine ModExp per CRT half -> recombine -> Bellcore
/// check.  Each stage is a child span of one replay.request span.
void ReplayStages(const ServiceSpec& spec, const ServiceRig& rig, Planner& planner,
                  double budget_s, obs::Tracer& tracer, RunOutcome& outcome) {
  struct KeyContext {
    std::unique_ptr<mont::core::MmmEngine> engine_p, engine_q, verify;
    BigUInt dp, dq, q_inv;
  };
  std::vector<KeyContext> contexts(rig.keys.size());
  const BigUInt one{1};
  for (std::size_t i = 0; i < rig.keys.size(); ++i) {
    const crypto::RsaKeyPair& key = rig.keys[i];
    contexts[i].engine_p = mont::core::MakeEngine(spec.engine, key.p);
    contexts[i].engine_q = mont::core::MakeEngine(spec.engine, key.q);
    contexts[i].verify = mont::core::MakeEngine("word-mont", key.n);
    contexts[i].dp = key.d % (key.p - one);
    contexts[i].dq = key.d % (key.q - one);
    contexts[i].q_inv = BigUInt::ModInverse(key.q % key.p, key.p);
  }
  const std::uint64_t end_ns = NowNs() + static_cast<std::uint64_t>(budget_s * 1e9);
  std::size_t replayed = 0;
  while (replayed < 500 && (replayed < 5 || NowNs() < end_ns)) {
    const RequestPlan plan = planner.Next();
    if (plan.stats) continue;
    const crypto::RsaKeyPair& key = rig.keys[plan.key_index];
    const KeyContext& context = contexts[plan.key_index];
    const std::size_t modulus_bytes = (key.n.BitLength() + 7) / 8;
    const std::uint64_t id = NextRequestId();
    server::SignRequest request;
    request.request_id = id;
    request.tenant_id = spec.keys[plan.key_index].tenant;
    request.key_id = spec.keys[plan.key_index].key_id;
    request.message = MessageBytes(plan);
    BigUInt em, mp, mq, signature;
    bool bellcore_ok = false;
    {
      ScopedSpan whole(&tracer, "replay.request", id, kReplayTrack);
      {
        ScopedSpan span(&tracer, "replay.wire", id, kReplayTrack);
        server::FrameReader reader;
        reader.Feed(server::Frame(server::EncodeSignRequest(request)));
        const auto decoded = server::DecodeSignRequest(reader.Next().value());
        request.message = decoded.value().message;
      }
      {
        ScopedSpan span(&tracer, "replay.emsa", id, kReplayTrack);
        em = crypto::EmsaPkcs1V15Encode(request.message, modulus_bytes);
      }
      {
        ScopedSpan span(&tracer, "replay.modexp_half", id, kReplayTrack);
        mp = context.engine_p->ModExp(em % key.p, context.dp);
      }
      {
        ScopedSpan span(&tracer, "replay.modexp_half", id, kReplayTrack);
        mq = context.engine_q->ModExp(em % key.q, context.dq);
      }
      {
        ScopedSpan span(&tracer, "replay.recombine", id, kReplayTrack);
        signature = crypto::RsaCrtRecombine(key, context.q_inv, mp, mq);
      }
      {
        ScopedSpan span(&tracer, "replay.verify", id, kReplayTrack);
        bellcore_ok = crypto::RsaCrtResultOk(*context.verify, key, em, signature);
      }
    }
    if (!bellcore_ok || BigUInt::ModExp(signature, key.e, key.n) != em) {
      outcome.Fail("replay: stage-by-stage signature failed the check");
    }
    ++replayed;
  }
  std::printf("replay: %zu sign requests stage by stage\n", replayed);
}

/// Pairs each id's job.submit instants with its job.run spans (in time
/// order) and returns the waits in microseconds.
std::vector<double> QueueWaitsUs(const TraceView& view) {
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> submits, starts;
  if (const auto it = view.instants.find("job.submit"); it != view.instants.end()) {
    for (const auto& [id, ts] : it->second) submits[id].push_back(ts);
  }
  for (const Span& span : view.spans) {
    if (span.name == "job.run") starts[span.id].push_back(span.start);
  }
  std::vector<double> waits;
  for (auto& [id, submit_ts] : submits) {
    auto& start_ts = starts[id];
    std::sort(submit_ts.begin(), submit_ts.end());
    std::sort(start_ts.begin(), start_ts.end());
    for (std::size_t i = 0; i < std::min(submit_ts.size(), start_ts.size()); ++i) {
      if (start_ts[i] >= submit_ts[i]) {
        waits.push_back(static_cast<double>(start_ts[i] - submit_ts[i]) / 1e3);
      }
    }
  }
  return waits;
}

/// crt.join -> crt.recombine start per request, in microseconds.
std::vector<double> ContinuationWaitsUs(const TraceView& view) {
  std::unordered_map<std::uint64_t, std::uint64_t> join;
  if (const auto it = view.instants.find("crt.join"); it != view.instants.end()) {
    for (const auto& [id, ts] : it->second) join[id] = ts;
  }
  std::vector<double> waits;
  for (const Span& span : view.spans) {
    if (span.name != "crt.recombine") continue;
    const auto it = join.find(span.id);
    if (it != join.end() && span.start >= it->second) {
      waits.push_back(static_cast<double>(span.start - it->second) / 1e3);
    }
  }
  return waits;
}

/// Time covered by `name` spans, merged per track: the two jobs of a
/// paired issue share one worker's interval and count once.
std::uint64_t BusyNs(const TraceView& view, const std::string& name) {
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> by_track;
  for (const Span& span : view.spans) {
    if (span.name == name) by_track[span.track].emplace_back(span.start, span.end);
  }
  std::uint64_t busy = 0;
  for (auto& [track, intervals] : by_track) {
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered_to = 0;
    for (const auto& [start, end] : intervals) {
      const std::uint64_t from = std::max(start, covered_to);
      if (end > from) busy += end - from;
      covered_to = std::max(covered_to, end);
    }
  }
  return busy;
}

double MedianUs(const std::vector<double>& ns) { return Percentile(ns, 500) / 1e3; }

void SetRegistryRatios(const obs::MetricsSnapshot& s, RunOutcome& outcome) {
  const auto c = [&](const char* name) {
    return static_cast<double>(s.CounterValue(name));
  };
  const double jobs = c("jobs.submitted");
  outcome.Set("core.pair_fraction",
              Ratio(c("issues.paired"), c("issues.paired") + c("issues.single")));
  outcome.Set("core.cache_hit_fraction",
              Ratio(c("engine.cache_hits"), c("engine.cache_hits") + c("engine.cache_misses")));
  outcome.Set("sched.steals_per_kjob", Ratio(1000 * c("sched.steals"), jobs));
  outcome.Set("sched.unpair_timeouts_per_kjob",
              Ratio(1000 * c("sched.unpair_timeouts"), jobs));
  outcome.Set("server.refused_fraction",
              Ratio(c("server.rejected_backpressure") + c("server.shed_overload"),
                    c("server.requests")));
  outcome.Set("server.deadline_fraction",
              Ratio(c("server.deadline_exceeded"), c("server.admitted")));
}

// --- the two kinds of run ---------------------------------------------------

/// Traced runs alternate this many untraced and traced slices.
constexpr int kTraceSlices = 4;

void Merge(const PhaseReport& slice, PhaseReport& into) {
  into.attempted += slice.attempted;
  into.ok += slice.ok;
  into.ok_signatures += slice.ok_signatures;
  into.slo_ok += slice.slo_ok;
  into.window_s += slice.window_s;
  into.latency_ms.insert(into.latency_ms.end(), slice.latency_ms.begin(),
                         slice.latency_ms.end());
  into.lag_ms.insert(into.lag_ms.end(), slice.lag_ms.begin(), slice.lag_ms.end());
}

void AddCounts(const PhaseReport& report, RunOutcome& outcome) {
  outcome.attempted += report.attempted;
  outcome.failed += report.attempted - report.ok;
}

double WarmupSeconds(double seconds) { return std::min(1.0, 0.1 * seconds); }

RunOutcome EndToEndRun(const std::string& name, const ServiceSpec& spec,
                       const RunOptions& options) {
  RunOutcome outcome;
  std::vector<double> setup_s;
  for (int i = 0; i < spec.setup_repeats; ++i) {
    const std::uint64_t t0 = NowNs();
    const auto trial = BuildRig(spec, kSetupSeedBase + static_cast<std::uint64_t>(i), nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::unique_ptr<ServiceRig> rig = BuildRig(spec, options.seed, nullptr);
  Planner planner(spec, options.seed);
  LoadGenerator generator(spec, *rig, planner);
  // Warm-up: checked, not counted.
  generator.Run(WarmupSeconds(options.seconds), nullptr, outcome);

  const PhaseReport report = generator.Run(options.seconds, nullptr, outcome);
  AddCounts(report, outcome);
  PrintPhase(name.c_str(), report);
  if (spec.open_loop) {
    const double lag_p99 = Percentile(report.lag_ms, 990);
    if (lag_p99 > kMaxGeneratorLagMs) {
      char reason[160];
      std::snprintf(reason, sizeof reason,
                    "generator lag p99 %.3f ms exceeds the %.1f ms limit", lag_p99,
                    kMaxGeneratorLagMs);
      outcome.invalid = reason;
    }
  }
  outcome.Set("setup_s", Percentile(setup_s, 500));
  // The median of the run's stretches, so that a host stall in a few of
  // them does not move the figure.
  outcome.Set("goodput_per_s", MedianRate(report.signed_s, kGoodputStretches));
  outcome.Set("latency_p50_ms", Percentile(report.latency_ms, 500));
  outcome.Set("slo_ok_fraction",
              Ratio(static_cast<double>(report.slo_ok), static_cast<double>(report.attempted)));
  outcome.Set("model_cycles_per_op",
              Ratio(static_cast<double>(report.engine_cycles),
                    static_cast<double>(report.ok_signatures)));
  outcome.Set("peak_rss_mb", PeakRssMb());
  std::printf("%s: set-ups", name.c_str());
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf(" s (median %.4f); failed_fraction %.6f\n", Percentile(setup_s, 500),
              Ratio(static_cast<double>(outcome.failed), static_cast<double>(outcome.attempted)));
  // The benchmark's own per-request memory, against the process's peak.
  const double bookkeeping_mb =
      static_cast<double>(sizeof(double) *
                          (report.latency_ms.capacity() + report.lag_ms.capacity() +
                           report.signed_s.capacity())) /
      (1024.0 * 1024.0);
  std::printf("%s: bookkeeping %.3f MB of %.3f MB peak RSS\n", name.c_str(), bookkeeping_mb,
              PeakRssMb());
  return outcome;
}

RunOutcome TracedRun(const ServiceSpec& spec, const RunOptions& options) {
  RunOutcome outcome;
  obs::Tracer::Options tracer_options;
  tracer_options.ring_capacity = std::size_t{1} << 17;
  tracer_options.start_enabled = false;
  obs::Tracer tracer(tracer_options);
  const std::unique_ptr<ServiceRig> rig = BuildRig(spec, options.seed, &tracer);
  Planner planner(spec, options.seed);
  LoadGenerator generator(spec, *rig, planner);
  // Warm-ups are checked, not counted.  The traced one lets each thread
  // allocate its trace ring (on its first event) outside the measured slices.
  generator.Run(WarmupSeconds(options.seconds), nullptr, outcome);
  tracer.set_enabled(true);
  generator.Run(0.2, &tracer, outcome);
  tracer.Clear();

  // Untraced and traced slices alternate on the same service, so drift in
  // the host's speed over the run cancels out of the overhead ratio.
  PhaseReport untraced, traced;
  double traced_s = 0;
  for (int slice = 0; slice < kTraceSlices; ++slice) {
    const double slice_s = options.seconds / (2 * kTraceSlices);
    tracer.set_enabled(false);
    Merge(generator.Run(slice_s, nullptr, outcome), untraced);
    tracer.set_enabled(true);
    const std::uint64_t traced_start = NowNs();
    Merge(generator.Run(slice_s, &tracer, outcome), traced);
    traced_s += static_cast<double>(NowNs() - traced_start) / 1e9;
  }
  AddCounts(untraced, outcome);
  AddCounts(traced, outcome);
  PrintPhase("untraced", untraced);
  PrintPhase("traced", traced);

  ReplayStages(spec, *rig, planner, 0.1 * options.seconds, tracer, outcome);
  tracer.set_enabled(false);
  MeasureKernels(*rig, options.seed, outcome);
  const TraceView view = ReadTrace(tracer);
  if (view.dropped != 0) {
    std::printf("trace: %llu events dropped by ring wraparound\n",
                static_cast<unsigned long long>(view.dropped));
  }
  if (!options.trace_out.empty()) {
    if (tracer.WriteChromeJson(options.trace_out)) {
      std::printf("trace: %zu events written to %s\n", tracer.EventCount(),
                  options.trace_out.c_str());
    } else {
      outcome.Fail("cannot write trace to " + options.trace_out);
    }
  }

  // core
  outcome.Set("core.queue_wait_us", Percentile(QueueWaitsUs(view), 500));
  outcome.Set("core.job_run_us", MedianUs(view.DurationsOf("job.run")));
  outcome.Set("core.worker_busy_fraction",
              Ratio(static_cast<double>(BusyNs(view, "job.run")) / 1e9, kWorkers * traced_s));
  outcome.Set("core.modexp_half_us", MedianUs(view.SelfTimesOf("replay.modexp_half")));
  SetRegistryRatios(rig->service->StatsSnapshot(), outcome);
  // crypto
  outcome.Set("crypto.emsa_us", MedianUs(view.SelfTimesOf("replay.emsa")));
  outcome.Set("crypto.recombine_us", MedianUs(view.SelfTimesOf("replay.recombine")));
  outcome.Set("crypto.verify_us", MedianUs(view.SelfTimesOf("replay.verify")));
  outcome.Set("core.cont_wait_us", Percentile(ContinuationWaitsUs(view), 500));
  // server
  const double wire_ns = Percentile(view.DurationsOf("bench.wire.request"), 500) +
                         Percentile(view.DurationsOf("bench.wire.response"), 500);
  const double handle_ns = Percentile(view.DurationsOf("bench.server.handle"), 500);
  outcome.Set("server.handle_us", handle_ns / 1e3);
  outcome.Set("server.wire_us", wire_ns / 1e3);
  outcome.Set("server.stats_us", MedianUs(view.DurationsOf("bench.server.stats")));
  // obs / ledger
  const double untraced_p50 = Percentile(untraced.latency_ms, 500);
  const double traced_p50 = Percentile(traced.latency_ms, 500);
  outcome.Set("obs.trace_overhead_fraction", Ratio(traced_p50, untraced_p50) - 1);
  const TailPercentile lag = HighestSupportedTail(traced.lag_ms);
  outcome.Set("loadgen.lag_p99_ms", lag.value);
  if (lag.per_mille != 990) {
    std::printf("loadgen: only %zu lag samples, reporting p%.1f as lag_p99_ms\n",
                traced.lag_ms.size(), lag.per_mille / 10.0);
  }
  const std::vector<double> half_ns = view.SelfTimesOf("replay.modexp_half");
  const std::vector<LedgerStage> stages = {
      {"server.wire", wire_ns},
      {"server.handle (incl. EMSA)", handle_ns},
      {"core.modexp p-half", Percentile(half_ns, 500)},
      {"core.modexp q-half", Percentile(half_ns, 500)},
      {"crypto.recombine", Percentile(view.SelfTimesOf("replay.recombine"), 500)},
      {"crypto.verify", Percentile(view.SelfTimesOf("replay.verify"), 500)},
  };
  const Ledger ledger = BuildLedger(traced_p50 * 1e6, stages);
  std::printf("ledger (median ns): end-to-end %.0f\n", ledger.end_to_end);
  for (const LedgerStage& stage : stages) {
    std::printf("ledger   %-28s %12.0f\n", stage.name.c_str(), stage.median);
  }
  std::printf("ledger   %-28s %12.0f (%.4f of end-to-end)\n", "unaccounted",
              ledger.unaccounted, ledger.unaccounted_fraction);
  outcome.Set("ledger.unaccounted_fraction", ledger.unaccounted_fraction);
  return outcome;
}

}  // namespace

bool IsServiceWorkload(const std::string& name) {
  return name == "rsa512-mix" || name == "bitserial-paired";
}

RunOutcome RunServiceWorkload(const RunOptions& options) {
  const ServiceSpec spec = SpecFor(options.workload);
  return options.trace ? TracedRun(spec, options)
                       : EndToEndRun(options.workload, spec, options);
}

}  // namespace perfbench
