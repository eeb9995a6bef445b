// Chaos/fault-injection suite for the signing service: every knob of
// server/chaos.hpp turned on against a live service, asserting the
// robustness invariants the front-end exists for —
//
//   * no hangs and no lost responses: every request gets exactly one
//     typed response, Wait()/the destructor always return;
//   * zero bad signatures: an injected CRT fault is caught by the
//     Bellcore check on every attempt, the service retries internally,
//     and anything released verifies against the public key;
//   * isolation: one stalled worker plus one flooding tenant do not stop
//     a healthy high-priority tenant from being served;
//   * typed shedding: overload and backpressure produce their exact
//     status codes, never silent drops.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "crypto/pkcs1.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "server/chaos.hpp"
#include "server/client.hpp"
#include "server/keystore.hpp"
#include "server/signing_service.hpp"
#include "server/transport.hpp"
#include "server/wire.hpp"
#include "testutil.hpp"

namespace mont::server {
namespace {

using bignum::BigUInt;

const crypto::RsaKeyPair& TestKey() {
  static const crypto::RsaKeyPair key = [] {
    bignum::RandomBigUInt rng(0x5e21e57a11u);  // same key as test_server
    return crypto::GenerateRsaKey(512, rng);
  }();
  return key;
}

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

SignRequest MakeRequest(std::uint32_t tenant_id, const std::string& message,
                        std::uint64_t deadline_ticks = 0) {
  SignRequest request;
  request.request_id = 1;
  request.tenant_id = tenant_id;
  request.key_id = 1;
  request.deadline_ticks = deadline_ticks;
  request.message = Bytes(message);
  return request;
}

bool Verifies(const std::vector<std::uint8_t>& message,
              const std::vector<std::uint8_t>& signature) {
  return crypto::RsaVerifyPkcs1V15(TestKey(), message,
                                   BigUInt::FromBytesBE(signature));
}

// ---------------------------------------------------------------------------
// CRT fault injection vs the Bellcore gate
// ---------------------------------------------------------------------------

TEST(ChaosSuite, InjectedCrtFaultIsCaughtRetriedAndNeverReleased) {
  ChaosOptions chaos_options;
  chaos_options.seed = 0xfa0175;
  // Corrupt roughly a third of recombinations: most requests see a clean
  // retry, some see several faults in a row.
  chaos_options.corrupt_crt_rate = 0.35;
  obs::Registry registry;
  ChaosLayer chaos(chaos_options, &registry);

  Keystore keystore;
  keystore.AddTenant(1, {});
  keystore.AddKey(1, 1, TestKey());
  SigningService::Options options;
  options.chaos = &chaos;
  options.max_internal_retries = 4;
  options.service.registry = &registry;  // one snapshot: chaos.* + server.*
  SigningService service(std::move(keystore), options);

  int ok = 0;
  int exhausted = 0;
  for (int i = 0; i < 24; ++i) {
    const auto message = Bytes("fault round " + std::to_string(i));
    auto request = MakeRequest(1, "");
    request.message = message;
    const auto response =
        service.HandleRequestSync(EncodeSignRequest(request));
    if (response.status == StatusCode::kOk) {
      ++ok;
      // THE invariant: anything released verifies.
      EXPECT_TRUE(Verifies(message, response.payload));
    } else {
      // The only other legal outcome is typed retry exhaustion.
      EXPECT_EQ(response.status, StatusCode::kInternalRetrying);
      ++exhausted;
    }
  }
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("server.bad_signatures_released"), 0u);
  // The injection actually fired, the gate actually caught.
  EXPECT_GT(counters.CounterValue("server.faults_caught"), 0u);
  EXPECT_EQ(counters.CounterValue("server.faults_caught"),
            counters.CounterValue("chaos.crt_corruptions"));
  EXPECT_GT(counters.CounterValue("server.internal_retries"), 0u);
  EXPECT_EQ(counters.CounterValue("server.ok"), static_cast<std::uint64_t>(ok));
  EXPECT_EQ(counters.CounterValue("server.retry_exhausted"),
            static_cast<std::uint64_t>(exhausted));
  // With rate 0.35 and 4 retries, most requests must still succeed.
  EXPECT_GT(ok, exhausted);
}

TEST(ChaosSuite, CertainFaultExhaustsRetriesWithTypedErrorOnly) {
  ChaosOptions chaos_options;
  chaos_options.corrupt_crt_rate = 1.0;  // every recombination corrupted
  ChaosLayer chaos(chaos_options);
  Keystore keystore;
  keystore.AddTenant(1, {});
  keystore.AddKey(1, 1, TestKey());
  SigningService::Options options;
  options.chaos = &chaos;
  options.max_internal_retries = 2;
  SigningService service(std::move(keystore), options);

  const auto response = service.HandleRequestSync(
      EncodeSignRequest(MakeRequest(1, "doomed")));
  EXPECT_EQ(response.status, StatusCode::kInternalRetrying);
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  // The initial attempt + 2 retries.
  EXPECT_EQ(counters.CounterValue("server.faults_caught"), 3u);
  EXPECT_EQ(counters.CounterValue("server.internal_retries"), 2u);
  EXPECT_EQ(counters.CounterValue("server.ok"), 0u);
  EXPECT_EQ(counters.CounterValue("server.bad_signatures_released"), 0u);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: one stalled worker + one flooding tenant,
// healthy tenants still served with typed errors for everything shed
// ---------------------------------------------------------------------------

TEST(ChaosSuite, StalledWorkerAndFloodingTenantDoNotStarveHealthyTenant) {
  ChaosOptions chaos_options;
  chaos_options.stall_worker = 0;       // 1 of 4 workers sleeps per group
  chaos_options.stall_micros = 3'000;
  obs::Registry registry;
  ChaosLayer chaos(chaos_options, &registry);

  Keystore keystore;
  TenantConfig flooder;
  flooder.priority = 0;      // shed first under overload
  flooder.burst = 6;         // small budget: the flood hits backpressure
  flooder.refill_period_ticks = 1'000'000'000;  // 1 token/s: no refill here
  flooder.max_in_flight = 4;
  TenantConfig healthy;
  healthy.priority = 15;
  healthy.burst = 64;
  healthy.max_in_flight = 64;
  keystore.AddTenant(1, flooder);
  keystore.AddTenant(2, healthy);
  keystore.AddKey(1, 1, TestKey());
  keystore.AddKey(2, 1, TestKey());

  SigningService::Options options;
  options.service.workers = 4;
  options.chaos = &chaos;
  options.admission.queue_high_watermark = 16;
  SigningService service(std::move(keystore), options);

  // The flooding tenant fires 32 requests as fast as it can.
  std::atomic<int> flood_responses{0};
  std::atomic<int> flood_untyped{0};
  for (int i = 0; i < 32; ++i) {
    service.HandleRequest(
        EncodeSignRequest(MakeRequest(1, "flood " + std::to_string(i))),
        [&](SignResponse response) {
          ++flood_responses;
          // Everything the flood gets back is a typed outcome: served,
          // backpressured, or shed — never anything else, never nothing.
          if (response.status != StatusCode::kOk &&
              response.status != StatusCode::kRejectedBackpressure &&
              response.status != StatusCode::kShedOverload) {
            ++flood_untyped;
          }
        });
  }

  // The healthy tenant keeps signing with a generous deadline.
  int healthy_ok = 0;
  for (int i = 0; i < 8; ++i) {
    const auto message = Bytes("healthy " + std::to_string(i));
    auto request = MakeRequest(2, "");
    request.message = message;
    request.deadline_ticks = 10'000'000'000ull;  // 10 s
    const auto response =
        service.HandleRequestSync(EncodeSignRequest(request));
    if (response.status == StatusCode::kOk) {
      EXPECT_TRUE(Verifies(message, response.payload));
      ++healthy_ok;
    }
  }
  service.Wait();

  // Healthy tenant fully served despite the stall and the flood.
  EXPECT_EQ(healthy_ok, 8);
  // No request hangs, none lost, all typed.
  EXPECT_EQ(flood_responses.load(), 32);
  EXPECT_EQ(flood_untyped.load(), 0);
  // The stall was real (work stealing routed around it).
  EXPECT_GT(registry.Snapshot().CounterValue("chaos.worker_stalls"), 0u);
  // The flood's tiny budget produced typed backpressure.
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_GT(counters.CounterValue("server.rejected_backpressure"), 0u);
  EXPECT_EQ(counters.CounterValue("server.bad_signatures_released"), 0u);
  // ExpService-level conservation held under chaos.
  const obs::MetricsSnapshot service_counters =
      service.registry().Snapshot();
  EXPECT_EQ(service_counters.CounterValue("jobs.submitted"),
            service_counters.CounterValue("jobs.completed") +
                service_counters.CounterValue("jobs.cancelled"));
}

// ---------------------------------------------------------------------------
// Transport chaos: dropped and garbled frames vs the retrying client
// ---------------------------------------------------------------------------

TEST(ChaosSuite, DroppedAndGarbledFramesAreSurvivedByRetryingClient) {
  ChaosOptions chaos_options;
  chaos_options.drop_request_rate = 0.15;
  chaos_options.drop_response_rate = 0.10;
  chaos_options.garble_frame_rate = 0.15;
  obs::Registry registry;
  ChaosLayer chaos(chaos_options, &registry);

  Keystore keystore;
  keystore.AddTenant(1, {});
  keystore.AddKey(1, 1, TestKey());
  SigningService service(std::move(keystore));
  InProcTransport transport(service, &chaos);
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff_micros = 10;
  policy.max_backoff_micros = 100;
  SigningClient client(transport, policy);

  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    const auto message = Bytes("wire chaos " + std::to_string(i));
    const auto outcome = client.Sign(1, 1, message, /*deadline_ticks=*/0,
                                     /*idempotent=*/true);
    ASSERT_LE(outcome.attempts, policy.max_attempts);
    if (outcome.status == StatusCode::kOk) {
      EXPECT_TRUE(Verifies(message, outcome.signature));
      ++ok;
    } else {
      // A garbled frame decodes as malformed (permanent — the client
      // stops); an all-attempts-dropped request ends as a timeout.
      EXPECT_TRUE(outcome.status == StatusCode::kMalformedRequest ||
                  outcome.status == StatusCode::kTransportTimeout)
          << StatusCodeName(outcome.status);
    }
  }
  // The chaos fired...
  const obs::MetricsSnapshot chaos_counters = registry.Snapshot();
  EXPECT_GT(chaos_counters.CounterValue("chaos.requests_dropped") +
                chaos_counters.CounterValue("chaos.frames_garbled") +
                chaos_counters.CounterValue("chaos.responses_dropped"),
            0u);
  // ...and the client still got most signatures through.
  EXPECT_GT(ok, 10);
  service.Wait();
  EXPECT_EQ(service.registry().Snapshot().CounterValue(
                "server.bad_signatures_released"),
            0u);
}

TEST(ChaosSuite, SlowTenantDelaysOnlyItsOwnCalls) {
  ChaosOptions chaos_options;
  chaos_options.slow_tenant = 1;
  chaos_options.slow_tenant_micros = 2'000;
  ChaosLayer chaos(chaos_options);
  EXPECT_EQ(chaos.SlowTenantDelayMicros(1), 2'000u);
  EXPECT_EQ(chaos.SlowTenantDelayMicros(2), 0u);
}

// ---------------------------------------------------------------------------
// Everything at once
// ---------------------------------------------------------------------------

TEST(ChaosSuite, CombinedChaosReleasesOnlyVerifiedSignatures) {
  ChaosOptions chaos_options;
  chaos_options.stall_worker = 1;
  chaos_options.stall_micros = 1'000;
  chaos_options.corrupt_crt_rate = 0.4;
  chaos_options.drop_request_rate = 0.1;
  chaos_options.garble_frame_rate = 0.1;
  ChaosLayer chaos(chaos_options);

  Keystore keystore;
  keystore.AddTenant(1, {});
  keystore.AddKey(1, 1, TestKey());
  SigningService::Options options;
  options.service.workers = 2;
  options.chaos = &chaos;
  options.max_internal_retries = 4;
  SigningService service(std::move(keystore), options);
  InProcTransport transport(service, &chaos);
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_backoff_micros = 10;
  SigningClient client(transport, policy);

  int ok = 0;
  for (int i = 0; i < 16; ++i) {
    const auto message = Bytes("combined " + std::to_string(i));
    const auto outcome = client.Sign(1, 1, message, /*deadline_ticks=*/0,
                                     /*idempotent=*/true);
    if (outcome.status == StatusCode::kOk) {
      EXPECT_TRUE(Verifies(message, outcome.signature));
      ++ok;
    }
  }
  EXPECT_GT(ok, 0);
  service.Wait();
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("server.bad_signatures_released"), 0u);
  const obs::MetricsSnapshot service_counters =
      service.registry().Snapshot();
  EXPECT_EQ(service_counters.CounterValue("jobs.submitted"),
            service_counters.CounterValue("jobs.completed") +
                service_counters.CounterValue("jobs.cancelled"));
}

}  // namespace
}  // namespace mont::server
