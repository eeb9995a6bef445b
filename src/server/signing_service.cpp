// signing_service.cpp — the signing front-end's request lifecycle.
//
// The shutdown/retry interlock in one place: every (re)submission of a
// request's CRT half-jobs happens under mu_ with shutting_down_ checked,
// and ~SigningService sets shutting_down_ under mu_ *before* destroying
// the ExpService.  A submit therefore either happens-before shutdown (and
// the ExpService destructor drains it — every callback and continuation
// still runs) or observes the flag and answers kShuttingDown instead.
// Either way each admitted request gets exactly one response and no
// future is abandoned.
#include "server/signing_service.hpp"

#include <cstring>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>

namespace mont::server {

namespace {

std::vector<std::uint8_t> DetailBytes(const char* detail) {
  const std::size_t length = detail == nullptr ? 0 : std::strlen(detail);
  return std::vector<std::uint8_t>(detail, detail + length);
}

}  // namespace

SigningService::SigningService(Keystore keystore, Options options)
    : keystore_(std::move(keystore)),
      options_(std::move(options)),
      max_frame_bytes_(options_.max_frame_bytes),
      chaos_(options_.chaos),
      admission_(options_.admission),
      owned_registry_(options_.service.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      registry_(options_.service.registry != nullptr ? options_.service.registry
                                                     : owned_registry_.get()),
      tracer_(options_.service.tracer) {
  clock_ = options_.service.clock != nullptr ? options_.service.clock
                                             : &steady_clock_;
  metrics_.requests = registry_->GetCounter("server.requests");
  metrics_.pings = registry_->GetCounter("server.pings");
  metrics_.stats_requests = registry_->GetCounter("server.stats_requests");
  metrics_.admitted = registry_->GetCounter("server.admitted");
  metrics_.ok = registry_->GetCounter("server.ok");
  metrics_.rejected_backpressure =
      registry_->GetCounter("server.rejected_backpressure");
  metrics_.shed_overload = registry_->GetCounter("server.shed_overload");
  metrics_.deadline_exceeded =
      registry_->GetCounter("server.deadline_exceeded");
  metrics_.retry_exhausted = registry_->GetCounter("server.retry_exhausted");
  metrics_.shutdown_refused = registry_->GetCounter("server.shutdown_refused");
  metrics_.malformed = registry_->GetCounter("server.malformed");
  metrics_.unknown_tenant = registry_->GetCounter("server.unknown_tenant");
  metrics_.unknown_key = registry_->GetCounter("server.unknown_key");
  metrics_.faults_caught = registry_->GetCounter("server.faults_caught");
  metrics_.internal_retries = registry_->GetCounter("server.internal_retries");
  metrics_.bad_signatures_released =
      registry_->GetCounter("server.bad_signatures_released");
  metrics_.latency_ticks = registry_->GetHistogram("server.latency_ticks");
  for (const std::uint32_t tenant_id : keystore_.TenantIds()) {
    admission_.RegisterTenant(tenant_id, *keystore_.FindTenant(tenant_id));
  }
  keystore_.ForEachKey([this](std::uint32_t tenant_id, std::uint32_t key_id,
                              const crypto::RsaKeyPair& key) {
    using bignum::BigUInt;
    if (key.p == key.q || key.p * key.q != key.n) {
      throw std::invalid_argument(
          "SigningService: malformed CRT key (tenant " +
          std::to_string(tenant_id) + ", key " + std::to_string(key_id) + ")");
    }
    PreparedKey prepared;
    prepared.key = &key;
    prepared.modulus_bytes = (key.n.BitLength() + 7) / 8;
    if (prepared.modulus_bytes < crypto::kPkcs1MinModulusBytes) {
      throw std::invalid_argument(
          "SigningService: modulus too small for PKCS#1 v1.5 / SHA-256 "
          "(need >= 62 bytes)");
    }
    const BigUInt one{1};
    prepared.dp = key.d % (key.p - one);
    prepared.dq = key.d % (key.q - one);
    prepared.q_inv = BigUInt::ModInverse(key.q % key.p, key.p);
    prepared.verify_engine = core::MakeEngine("word-mont", key.n);
    keys_[KeySlot(tenant_id, key_id)] = std::move(prepared);
  });
  auto service_options = options_.service;
  // Every layer shares one registry: the ExpService's jobs.*/sched.*/
  // engine.* counters land next to the server.* ones above.
  service_options.registry = registry_;
  if (chaos_ != nullptr) {
    ChaosLayer* chaos = chaos_;
    service_options.worker_observer = [chaos](std::size_t worker) {
      chaos->OnWorkerIssue(worker);
    };
  }
  service_ = std::make_unique<core::ExpService>(std::move(service_options));
  exp_ = service_.get();
}

SigningService::~SigningService() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutting_down_ = true;
  }
  // Drains every queued half-job and continuation; each in-flight request
  // reaches Finish before this returns.
  service_.reset();
}

std::uint64_t SigningService::NowTicks() const { return clock_->Now(); }

void SigningService::RespondRejected(const ResponseFn& respond,
                                     std::uint64_t request_id,
                                     StatusCode status, const char* detail) {
  Bump(status);
  if (!respond) return;
  SignResponse response;
  response.status = status;
  response.request_id = request_id;
  response.payload = DetailBytes(detail);
  try {
    respond(std::move(response));
  } catch (...) {
  }
}

void SigningService::HandleRequest(std::vector<std::uint8_t> payload,
                                   ResponseFn respond) {
  metrics_.requests.Increment();
  const auto request = DecodeSignRequest(payload);
  if (!request) {
    RespondRejected(respond, 0, StatusCode::kMalformedRequest,
                    "undecodable request payload");
    return;
  }
  if (request->type == RequestType::kPing) {
    metrics_.pings.Increment();
    if (respond) {
      SignResponse response;
      response.request_id = request->request_id;
      try {
        respond(std::move(response));
      } catch (...) {
      }
    }
    return;
  }
  if (request->type == RequestType::kStats) {
    // Deliberately bypasses admission: the ops view must stay readable
    // while the service sheds load (STATS does no engine work).
    metrics_.stats_requests.Increment();
    if (respond) {
      SignResponse response;
      response.request_id = request->request_id;
      const std::string json = registry_->Snapshot().RenderJson();
      response.payload.assign(json.begin(), json.end());
      try {
        respond(std::move(response));
      } catch (...) {
      }
    }
    return;
  }
  if (keystore_.FindTenant(request->tenant_id) == nullptr) {
    RespondRejected(respond, request->request_id, StatusCode::kUnknownTenant,
                    "unknown tenant");
    return;
  }
  const auto key_it = keys_.find(KeySlot(request->tenant_id, request->key_id));
  if (key_it == keys_.end()) {
    RespondRejected(respond, request->request_id, StatusCode::kUnknownKey,
                    "unknown key for tenant");
    return;
  }
  const PreparedKey& prepared = key_it->second;
  // The message representative is computed outside the lock (hashing is
  // the request's only unbounded-input work).
  bignum::BigUInt em =
      crypto::EmsaPkcs1V15Encode(request->message, prepared.modulus_bytes);
  const std::uint64_t now = NowTicks();

  std::unique_lock<std::mutex> lk(mu_);
  if (shutting_down_) {
    lk.unlock();
    RespondRejected(respond, request->request_id, StatusCode::kShuttingDown,
                    "service shutting down");
    return;
  }
  const AdmissionDecision decision = admission_.Admit(request->tenant_id, now);
  if (!decision.admitted) {
    lk.unlock();
    RespondRejected(respond, request->request_id, decision.reason,
                    decision.reason == StatusCode::kShedOverload
                        ? "shed: overload priority cutoff"
                        : "backpressure: tenant budget exhausted");
    return;
  }
  metrics_.admitted.Increment();
  ++in_flight_;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("server.admit", request->request_id, 0, now,
                     {{"tenant", request->tenant_id},
                      {"key", request->key_id}});
  }

  auto state = std::make_shared<RequestState>();
  state->request_id = request->request_id;
  state->tenant_id = request->tenant_id;
  state->key = &prepared;
  state->em = std::move(em);
  state->deadline =
      request->deadline_ticks == 0 ? 0 : now + request->deadline_ticks;
  state->admit_tick = now;
  state->respond = std::move(respond);
  SubmitHalvesLocked(state);
}

SignResponse SigningService::HandleRequestSync(
    std::vector<std::uint8_t> payload) {
  std::promise<SignResponse> promise;
  std::future<SignResponse> future = promise.get_future();
  HandleRequest(std::move(payload), [&promise](SignResponse response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

void SigningService::SubmitHalvesLocked(
    const std::shared_ptr<RequestState>& state) {
  state->remaining.store(2, std::memory_order_relaxed);
  state->p_cancelled = false;
  state->q_cancelled = false;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant(
        "crt.submit_halves", state->request_id, 0, NowTicks(),
        {{"attempt", static_cast<std::uint64_t>(state->attempts)}});
  }
  const crypto::RsaKeyPair& key = *state->key->key;
  core::ExpJobOptions job_options;
  job_options.deadline = state->deadline;
  // Both half-jobs carry the request id as their trace id, so the
  // engine-level job.run spans correlate with the server.* events.
  job_options.trace_id = state->request_id;
  exp_->Submit(key.p, state->em % key.p, state->key->dp, job_options,
               [this, state](const core::ExpResult& result) {
                 state->mp = result.value;
                 state->p_cancelled = result.cancelled;
                 OnHalfDone(state);
               });
  exp_->Submit(key.q, state->em % key.q, state->key->dq, job_options,
               [this, state](const core::ExpResult& result) {
                 state->mq = result.value;
                 state->q_cancelled = result.cancelled;
                 OnHalfDone(state);
               });
}

void SigningService::OnHalfDone(const std::shared_ptr<RequestState>& state) {
  // acq_rel: the half that arrives second observes the first half's
  // mp/mq write before posting recombination.
  if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("crt.join", state->request_id, 0, NowTicks());
  }
  exp_->Post([this, state] { Recombine(state); });
}

void SigningService::Recombine(const std::shared_ptr<RequestState>& state) {
  if (state->p_cancelled || state->q_cancelled) {
    Finish(state, StatusCode::kDeadlineExceeded,
           DetailBytes("deadline expired before engine dispatch"));
    return;
  }
  // Chaos compute-fault injection: flip a bit of the p-half *after* the
  // engines ran and *before* recombination — exactly the fault class the
  // Bellcore check exists for.
  if (chaos_ != nullptr && chaos_->ShouldCorruptCrtHalf()) {
    chaos_->CorruptValue(state->mp);
  }
  const PreparedKey& prepared = *state->key;
  obs::Tracer* const tracer = tracer_;
  const bool tracing = tracer != nullptr && tracer->enabled();
  const std::uint64_t recombine_start = tracing ? NowTicks() : 0;
  const bignum::BigUInt signature =
      crypto::RsaCrtRecombine(*prepared.key, prepared.q_inv, state->mp,
                              state->mq);
  const bool bellcore_ok = crypto::RsaCrtResultOk(
      *prepared.verify_engine, *prepared.key, state->em, signature);
  if (tracing) {
    tracer->Complete("crt.recombine", state->request_id, 0, recombine_start,
                     NowTicks(),
                     {{"bellcore_ok", bellcore_ok ? std::uint64_t{1}
                                                  : std::uint64_t{0}}});
  }
  if (!bellcore_ok) {
    metrics_.faults_caught.Increment();
    if (tracing) {
      tracer->Instant(
          "bellcore.fault", state->request_id, 0, NowTicks(),
          {{"attempt", static_cast<std::uint64_t>(state->attempts)}});
    }
    bool shutdown = false;
    bool retried = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown = shutting_down_;
      if (!shutdown && state->attempts < options_.max_internal_retries) {
        ++state->attempts;
        metrics_.internal_retries.Increment();
        SubmitHalvesLocked(state);
        retried = true;
      }
    }
    if (!retried) {
      Finish(state,
             shutdown ? StatusCode::kShuttingDown
                      : StatusCode::kInternalRetrying,
             DetailBytes(shutdown
                             ? "service shutting down during internal retry"
                             : "compute fault persisted across retries; "
                               "no signature released"));
    }
    return;
  }
  Finish(state, StatusCode::kOk,
         signature.ToBytesBE(prepared.modulus_bytes));
}

void SigningService::Finish(const std::shared_ptr<RequestState>& state,
                            StatusCode status,
                            std::vector<std::uint8_t> payload) {
  SignResponse response;
  response.status = status;
  response.request_id = state->request_id;
  response.payload = std::move(payload);
  const std::uint64_t release_tick = NowTicks();
  metrics_.latency_ticks.Record(release_tick >= state->admit_tick
                                    ? release_tick - state->admit_tick
                                    : 0);
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant(
        "server.release", state->request_id, 0, release_tick,
        {{"status", static_cast<std::uint64_t>(status)},
         {"attempts", static_cast<std::uint64_t>(state->attempts)}});
  }
  // Bump before dropping in_flight_ so a registry snapshot taken after
  // Wait() observes the final status counter.
  Bump(status);
  {
    std::lock_guard<std::mutex> lk(mu_);
    admission_.OnComplete(state->tenant_id);
    --in_flight_;
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
  if (state->respond) {
    try {
      state->respond(std::move(response));
    } catch (...) {
    }
  }
}

void SigningService::Bump(StatusCode status) {
  switch (status) {
    case StatusCode::kOk:
      metrics_.ok.Increment();
      break;
    case StatusCode::kRejectedBackpressure:
      metrics_.rejected_backpressure.Increment();
      break;
    case StatusCode::kShedOverload:
      metrics_.shed_overload.Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      metrics_.deadline_exceeded.Increment();
      break;
    case StatusCode::kInternalRetrying:
      metrics_.retry_exhausted.Increment();
      break;
    case StatusCode::kUnknownTenant:
      metrics_.unknown_tenant.Increment();
      break;
    case StatusCode::kUnknownKey:
      metrics_.unknown_key.Increment();
      break;
    case StatusCode::kMalformedRequest:
      metrics_.malformed.Increment();
      break;
    case StatusCode::kShuttingDown:
      metrics_.shutdown_refused.Increment();
      break;
    default:
      break;
  }
}

void SigningService::Wait() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [this] { return in_flight_ == 0; });
  }
  // Also drain the ExpService so job-level counters have settled (the
  // last response can fire before its worker retires the issue group).
  exp_->Wait();
}

}  // namespace mont::server
