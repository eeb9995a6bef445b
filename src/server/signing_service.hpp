// signing_service.hpp — the production-grade signing front-end over
// core::ExpService.
//
// One SigningService serves PKCS#1 v1.5 RSA signatures for many tenants
// from a read-only Keystore, and survives the things a production service
// must survive:
//
//   * admission control — per-tenant token buckets + in-flight bounds and
//     a global priority-cutoff shed policy (server/admission.hpp); every
//     refusal is a typed StatusCode, never a silent drop;
//   * deadlines — a request's relative deadline becomes an absolute
//     ExpJobOptions::deadline on both CRT half-jobs, so an expired request
//     is cancelled *inside the scheduler* before it ever reaches an
//     engine (DEADLINE_EXCEEDED, and the array time goes to live work);
//   * fault containment — each request's CRT halves run through the
//     crypto CRT core (crypto::SubmitCrtHalves), which joins them on the
//     continuation thread; the service recombines there, gated by the
//     Bellcore/Lenstra check (crypto::CrtKey::Recombine).  A corrupted
//     half (chaos injection or a real compute fault) or a half whose
//     engine failed is caught, the request silently retried up to
//     max_internal_retries, and a bad signature is NEVER released —
//     server.bad_signatures_released exists to let tests assert the
//     zero;
//   * clean shutdown — the destructor drains in-flight work; internal
//     retries racing destruction respond kShuttingDown instead of
//     submitting into a stopping service.  Every admitted request gets
//     exactly one response.
//
// The service speaks decoded wire payloads (HandleRequest); framing, the
// oversize check and chaos transport faults live in server/transport.hpp
// and the TCP adapter (examples/exp_server.cpp).
//
// Observability: every counter lives in one obs::Registry
// (Options::service.registry, or a service-owned one) under stable
// dotted names — server.* here, jobs.*/sched.*/engine.* from the
// ExpService below — and the STATS wire verb returns the merged snapshot
// as JSON.  When Options::service.tracer is set, each admitted request
// emits lifecycle events (server.admit → crt.submit_halves → crt.join →
// crt.recombine → bellcore.fault? → server.release) carrying the
// request id, and both CRT half-jobs propagate it as their trace id so
// the engine-level job.run spans correlate.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/exp_service.hpp"
#include "crypto/pkcs1.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "crypto/rsa.hpp"
#include "server/admission.hpp"
#include "server/chaos.hpp"
#include "server/keystore.hpp"
#include "server/wire.hpp"

namespace mont::server {

class SigningService {
 public:
  struct Options {
    /// ExpService configuration (workers, scheduler, engine).  The
    /// service installs its own worker_observer when a ChaosLayer is
    /// attached; engine defaults to the service default ("bit-serial").
    /// `service.registry` (null = service-owned) also receives the
    /// server.* counters and the server.latency_ticks histogram;
    /// `service.tracer` additionally gets the request-lifecycle events.
    core::ExpService::Options service;
    AdmissionController::Config admission;
    /// Internal re-sign attempts after a Bellcore-detected fault before
    /// giving up with kInternalRetrying.
    int max_internal_retries = 2;
    /// Frame-size ceiling advertised to transports/adapters.
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Fault injection (not owned, may be null; must outlive the
    /// service).  Only the compute-fault and worker-stall knobs act here;
    /// transport faults act in InProcTransport.
    ChaosLayer* chaos = nullptr;
  };

  /// Validates every key in the keystore up front (CRT-valid, modulus
  /// large enough for PKCS#1/SHA-256) and precomputes its CRT context —
  /// throws std::invalid_argument rather than serving a bad key.
  explicit SigningService(Keystore keystore)
      : SigningService(std::move(keystore), Options{}) {}
  SigningService(Keystore keystore, Options options);
  /// Drains all in-flight requests (each still gets its one response),
  /// then stops the workers.
  ~SigningService();

  SigningService(const SigningService&) = delete;
  SigningService& operator=(const SigningService&) = delete;

  using ResponseFn = std::function<void(SignResponse)>;

  /// Handles one decoded request payload asynchronously.  `respond` is
  /// invoked exactly once — possibly immediately on the caller's thread
  /// (rejections), possibly later on a service thread (signatures) — and
  /// any exception it throws is contained.  Callers must not destroy the
  /// service while calls are entering; in-flight requests are drained by
  /// the destructor.
  void HandleRequest(std::vector<std::uint8_t> payload, ResponseFn respond);

  /// Synchronous convenience wrapper (blocks for the response).
  SignResponse HandleRequestSync(std::vector<std::uint8_t> payload);

  /// Blocks until no admitted request is in flight AND the underlying
  /// ExpService has retired every job (so counter snapshots are stable).
  void Wait();

  /// The metrics registry every counter lives in (server.* + the
  /// ExpService's jobs.*/sched.*/engine.*): Options::service.registry
  /// when that was set, the service's private one otherwise.  What the
  /// STATS verb renders.  The server.* counters: requests (decoded
  /// payloads, incl. pings), pings, stats_requests, admitted, ok,
  /// rejected_backpressure, shed_overload, deadline_exceeded,
  /// retry_exhausted (every attempt faulted; answered kInternalRetrying),
  /// shutdown_refused, malformed, unknown_tenant, unknown_key,
  /// faults_caught (Bellcore-detected faults: chaos corruptions that
  /// reached recombination plus any real compute fault; a CRT half whose
  /// engine failed counts here too and takes the same retry path, with no
  /// counter or status of its own), internal_retries, and
  /// bad_signatures_released — THE invariant counter: a signature
  /// released whose Bellcore check did not pass.  Structurally
  /// unreachable (the only kOk path is behind CrtKey::Recombine's gate)
  /// and asserted == 0 by the chaos suite.
  obs::Registry& registry() const { return *registry_; }
  /// Merged metrics snapshot — the STATS verb's source of truth.
  obs::MetricsSnapshot StatsSnapshot() const { return registry_->Snapshot(); }

  std::size_t MaxFrameBytes() const { return max_frame_bytes_; }
  const Keystore& keystore() const { return keystore_; }
  /// Current service-clock tick (what relative deadlines are added to).
  std::uint64_t NowTicks() const;

 private:
  /// Per-(tenant, key) context hoisted at construction: the CRT core's
  /// prepared key and the PKCS#1 encoding length.
  struct PreparedKey {
    crypto::CrtKey crt;
    std::size_t modulus_bytes = 0;
  };

  /// One admitted request's lifecycle across its CRT attempts.
  struct RequestState {
    std::uint64_t request_id = 0;
    std::uint32_t tenant_id = 0;
    const PreparedKey* key = nullptr;
    bignum::BigUInt em;        ///< PKCS#1 message representative
    std::uint64_t deadline = 0;  ///< absolute tick, 0 = none
    std::uint64_t admit_tick = 0;  ///< for server.latency_ticks
    int attempts = 0;
    ResponseFn respond;
  };

  static std::uint64_t KeySlot(std::uint32_t tenant_id, std::uint32_t key_id) {
    return (static_cast<std::uint64_t>(tenant_id) << 32) | key_id;
  }

  /// Responds without touching admission (request was never admitted).
  void RespondRejected(const ResponseFn& respond, std::uint64_t request_id,
                       StatusCode status, const char* detail);
  /// Submits (or resubmits) the request's two CRT half-jobs.  Caller
  /// holds mu_ — that ordering is what makes shutdown airtight: the
  /// destructor sets shutting_down_ under mu_ before the ExpService stops,
  /// so a submit either happens-before shutdown (and is drained) or
  /// observes the flag and never happens.
  void SubmitHalvesLocked(const std::shared_ptr<RequestState>& state);
  /// Continuation-thread stage, once per attempt: recombine,
  /// Bellcore-gate, retry or finish.
  void Recombine(const std::shared_ptr<RequestState>& state,
                 crypto::CrtHalves& halves);
  /// Retires an admitted request with its one response.
  void Finish(const std::shared_ptr<RequestState>& state, StatusCode status,
              std::vector<std::uint8_t> payload);
  /// Maps a final status to its server.* counter.  Registry counters are
  /// lock-free, so no lock is required (call sites that hold mu_ anyway
  /// are fine too).
  void Bump(StatusCode status);

  Keystore keystore_;
  Options options_;
  std::size_t max_frame_bytes_ = kDefaultMaxFrameBytes;
  core::SteadyClock steady_clock_;
  const core::Clock* clock_ = nullptr;
  ChaosLayer* chaos_ = nullptr;
  std::unordered_map<std::uint64_t, PreparedKey> keys_;

  mutable std::mutex mu_;  // admission_, in_flight_, shutdown
  std::condition_variable idle_cv_;
  AdmissionController admission_;
  /// Backs registry() when Options::service.registry is null.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;  ///< Options::service.tracer (may be null)
  struct {
    obs::Counter requests;
    obs::Counter pings;
    obs::Counter stats_requests;
    obs::Counter admitted;
    obs::Counter ok;
    obs::Counter rejected_backpressure;
    obs::Counter shed_overload;
    obs::Counter deadline_exceeded;
    obs::Counter retry_exhausted;
    obs::Counter shutdown_refused;
    obs::Counter malformed;
    obs::Counter unknown_tenant;
    obs::Counter unknown_key;
    obs::Counter faults_caught;
    obs::Counter internal_retries;
    obs::Counter bad_signatures_released;
    obs::Histogram latency_ticks;  ///< admit → release, service-clock ticks
  } metrics_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;

  /// Last member: destroyed first, and reset explicitly by ~SigningService
  /// after shutting_down_ is set — its drain may still run our
  /// continuations, which touch everything above.
  std::unique_ptr<core::ExpService> service_;
  /// Non-owning alias of service_, set once at construction and never
  /// nulled.  All request paths go through this: during destruction,
  /// unique_ptr::reset() nulls service_ *before* running the ExpService
  /// destructor, but worker callbacks still need to Post continuations
  /// while that destructor drains — the alias stays valid for exactly
  /// that window.
  core::ExpService* exp_ = nullptr;
};

}  // namespace mont::server
