// Tests for the signing service front-end (src/server/): the wire codec
// and framing, the admission/shedding policy, the PKCS#1 v1.5 signature
// unit (SHA-256 vectors, encoding structure, sign/verify/tamper), the
// client retry taxonomy, and the service end to end — real signatures,
// typed errors for every refusal path, and counter conservation down
// into the ExpService underneath.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/exp_service.hpp"
#include "crypto/pkcs1.hpp"
#include "crypto/rsa.hpp"
#include "obs/metrics.hpp"
#include "server/admission.hpp"
#include "server/client.hpp"
#include "server/keystore.hpp"
#include "server/signing_service.hpp"
#include "server/transport.hpp"
#include "server/wire.hpp"
#include "testutil.hpp"

namespace mont::server {
namespace {

using bignum::BigUInt;

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// One 512-bit test key, generated once (key generation is the slow part
// of these suites; every test shares it through this accessor).
const crypto::RsaKeyPair& TestKey() {
  static const crypto::RsaKeyPair key = [] {
    bignum::RandomBigUInt rng(0x5e21e57a11u);
    return crypto::GenerateRsaKey(512, rng);
  }();
  return key;
}

Keystore OneTenantKeystore(TenantConfig config = {}) {
  Keystore keystore;
  keystore.AddTenant(1, std::move(config));
  keystore.AddKey(1, 7, TestKey());
  return keystore;
}

// ---------------------------------------------------------------------------
// Wire codec and framing
// ---------------------------------------------------------------------------

TEST(Wire, SignRequestRoundTrip) {
  SignRequest request;
  request.type = RequestType::kSign;
  request.request_id = 0x1122334455667788ull;
  request.tenant_id = 42;
  request.key_id = 7;
  request.deadline_ticks = 1'000'000;
  request.message = Bytes("attack at dawn");
  const auto payload = EncodeSignRequest(request);
  const auto decoded = DecodeSignRequest(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, request.request_id);
  EXPECT_EQ(decoded->tenant_id, request.tenant_id);
  EXPECT_EQ(decoded->key_id, request.key_id);
  EXPECT_EQ(decoded->deadline_ticks, request.deadline_ticks);
  EXPECT_EQ(decoded->message, request.message);
}

TEST(Wire, SignResponseRoundTrip) {
  SignResponse response;
  response.status = StatusCode::kShedOverload;
  response.request_id = 99;
  response.payload = Bytes("shed");
  const auto decoded = DecodeSignResponse(EncodeSignResponse(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, StatusCode::kShedOverload);
  EXPECT_EQ(decoded->request_id, 99u);
  EXPECT_EQ(decoded->payload, response.payload);
}

TEST(Wire, DecoderRejectsCorruptPayloads) {
  SignRequest request;
  request.message = Bytes("x");
  auto payload = EncodeSignRequest(request);
  // Empty / truncated.
  EXPECT_FALSE(DecodeSignRequest({}).has_value());
  EXPECT_FALSE(DecodeSignRequest(
                   std::span<const std::uint8_t>(payload.data(), 3))
                   .has_value());
  // Bad magic.
  auto bad_magic = payload;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeSignRequest(bad_magic).has_value());
  // Bad version.
  auto bad_version = payload;
  bad_version[2] ^= 0xff;
  EXPECT_FALSE(DecodeSignRequest(bad_version).has_value());
  // Bad type.
  auto bad_type = payload;
  bad_type[3] = 0xee;
  EXPECT_FALSE(DecodeSignRequest(bad_type).has_value());
  // Trailing garbage.
  auto trailing = payload;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeSignRequest(trailing).has_value());
}

TEST(Wire, FrameReaderSplitsChunkedStream) {
  SignRequest request;
  request.request_id = 5;
  request.message = Bytes("hello");
  const auto payload = EncodeSignRequest(request);
  auto stream = Frame(payload);
  const auto second = Frame(payload);
  stream.insert(stream.end(), second.begin(), second.end());

  FrameReader reader;
  // Feed one byte at a time: framing must reassemble exactly two frames.
  for (const std::uint8_t byte : stream) {
    reader.Feed(std::span<const std::uint8_t>(&byte, 1));
  }
  int frames = 0;
  while (auto next = reader.Next()) {
    EXPECT_EQ(*next, payload);
    ++frames;
  }
  EXPECT_EQ(frames, 2);
  EXPECT_FALSE(reader.OversizeError());
}

TEST(Wire, FrameReaderOversizeIsPermanent) {
  FrameReader reader(/*max_frame_bytes=*/16);
  // Length prefix declares 1 MiB.
  const std::vector<std::uint8_t> prefix = {0x00, 0x00, 0x10, 0x00};
  reader.Feed(prefix);
  EXPECT_TRUE(reader.OversizeError());
  EXPECT_FALSE(reader.Next().has_value());
  // The error does not clear, even on further (valid) input.
  reader.Feed(Frame(Bytes("ok")));
  EXPECT_TRUE(reader.OversizeError());
  EXPECT_FALSE(reader.Next().has_value());
}

// ---------------------------------------------------------------------------
// Token bucket and admission policy
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, PrimesToCapacityAndRefillsWholePeriods) {
  TokenBucket bucket(/*capacity=*/2, /*refill_period_ticks=*/10);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(9));   // partial period earns nothing
  EXPECT_TRUE(bucket.TryAcquire(10));   // exactly one period -> one token
  EXPECT_FALSE(bucket.TryAcquire(19));  // fractional progress carried over
  EXPECT_TRUE(bucket.TryAcquire(20));
  // A long idle stretch refills to capacity, not beyond.
  EXPECT_EQ(bucket.Available(1000), 2u);
}

TEST(TokenBucketTest, ZeroPeriodIsUnlimited) {
  TokenBucket bucket(/*capacity=*/1, /*refill_period_ticks=*/0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
}

TEST(Admission, InFlightBoundGivesBackpressure) {
  AdmissionController admission({/*queue_high_watermark=*/1000});
  TenantConfig config;
  config.max_in_flight = 2;
  config.refill_period_ticks = 0;  // unlimited rate: isolate the bound
  admission.RegisterTenant(1, config);
  EXPECT_TRUE(admission.Admit(1, 0).admitted);
  EXPECT_TRUE(admission.Admit(1, 0).admitted);
  const auto refused = admission.Admit(1, 0);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.reason, StatusCode::kRejectedBackpressure);
  admission.OnComplete(1);
  EXPECT_TRUE(admission.Admit(1, 0).admitted);
  EXPECT_EQ(admission.TenantInFlight(1), 2u);
}

TEST(Admission, PriorityCutoffRampIsDeterministicAndMonotone) {
  AdmissionController admission({/*queue_high_watermark=*/8});
  EXPECT_EQ(admission.PriorityCutoff(0), 0);
  EXPECT_EQ(admission.PriorityCutoff(7), 0);
  EXPECT_EQ(admission.PriorityCutoff(8), 1);   // shedding starts
  EXPECT_EQ(admission.PriorityCutoff(16), 16);  // everything shed at 2x
  int last = 0;
  for (std::size_t depth = 0; depth <= 32; ++depth) {
    const int cutoff = admission.PriorityCutoff(depth);
    EXPECT_GE(cutoff, last);
    last = cutoff;
  }
  EXPECT_EQ(last, AdmissionController::kMaxPriority + 1);
}

TEST(Admission, ShedsLowPriorityFirstUnderLoad) {
  AdmissionController admission({/*queue_high_watermark=*/4});
  TenantConfig low;
  low.priority = 0;
  low.max_in_flight = 100;
  TenantConfig high;
  high.priority = 15;
  high.max_in_flight = 100;
  admission.RegisterTenant(1, low);
  admission.RegisterTenant(2, high);
  // Fill to the watermark with high-priority work.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(admission.Admit(2, 0).admitted);
  // At the watermark the cutoff is 1: priority 0 is shed, 15 admitted.
  const auto shed = admission.Admit(1, 0);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, StatusCode::kShedOverload);
  EXPECT_TRUE(admission.Admit(2, 0).admitted);
}

// ---------------------------------------------------------------------------
// PKCS#1 v1.5 / SHA-256
// ---------------------------------------------------------------------------

std::string Hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

TEST(Pkcs1, Sha256KnownVectors) {
  const auto empty = crypto::Sha256({});
  EXPECT_EQ(Hex(empty),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const auto abc_bytes = Bytes("abc");
  EXPECT_EQ(Hex(crypto::Sha256(abc_bytes)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // A two-block message (> 55 bytes forces a second padding block).
  const auto long_bytes = Bytes(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(Hex(crypto::Sha256(long_bytes)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Pkcs1, EncodingHasExactEmsaStructure) {
  const auto message = Bytes("structure check");
  const std::size_t k = 64;  // 512-bit modulus
  const BigUInt em = crypto::EmsaPkcs1V15Encode(message, k);
  const auto bytes = em.ToBytesBE(k);
  ASSERT_EQ(bytes.size(), k);
  EXPECT_EQ(bytes[0], 0x00);
  EXPECT_EQ(bytes[1], 0x01);
  // PS: 0xff padding up to the 0x00 separator before the DigestInfo.
  const std::size_t digest_info_len = 19 + 32;
  const std::size_t separator = k - digest_info_len - 1;
  for (std::size_t i = 2; i < separator; ++i) EXPECT_EQ(bytes[i], 0xff);
  EXPECT_EQ(bytes[separator], 0x00);
  // Trailing 32 bytes are the SHA-256 digest itself.
  const auto digest = crypto::Sha256(message);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(bytes[k - 32 + i], digest[i]);
  }
}

TEST(Pkcs1, RejectsTooSmallModulus) {
  EXPECT_THROW(crypto::EmsaPkcs1V15Encode({}, 61), std::invalid_argument);
}

TEST(Pkcs1, SignVerifyAndTamperDetection) {
  const auto& key = TestKey();
  const auto message = Bytes("a signed statement");
  const BigUInt signature = crypto::RsaSignPkcs1V15(key, message);
  EXPECT_TRUE(crypto::RsaVerifyPkcs1V15(key, message, signature));
  // Tampered message.
  const auto other = Bytes("a Signed statement");
  EXPECT_FALSE(crypto::RsaVerifyPkcs1V15(key, other, signature));
  // Tampered signature.
  EXPECT_FALSE(
      crypto::RsaVerifyPkcs1V15(key, message, signature + BigUInt{1}));
}

TEST(Pkcs1, ByteConversionRoundTrips) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {1u, 8u, 9u, 31u, 32u, 33u, 511u, 512u}) {
    const BigUInt x = rng.ExactBits(bits);
    const auto bytes = x.ToBytesBE();
    EXPECT_EQ(BigUInt::FromBytesBE(bytes), x);
    // Padded conversion preserves the value.
    const auto padded = x.ToBytesBE(80);
    EXPECT_EQ(padded.size(), 80u);
    EXPECT_EQ(BigUInt::FromBytesBE(padded), x);
  }
}

// ---------------------------------------------------------------------------
// Client retry taxonomy
// ---------------------------------------------------------------------------

TEST(RetryTaxonomy, SafeStatusesAlwaysRetry) {
  for (const StatusCode status :
       {StatusCode::kRejectedBackpressure, StatusCode::kShedOverload,
        StatusCode::kInternalRetrying}) {
    EXPECT_TRUE(SigningClient::MayRetry(status, /*idempotent=*/true));
    EXPECT_TRUE(SigningClient::MayRetry(status, /*idempotent=*/false));
    EXPECT_TRUE(DefinitelyNotExecuted(status));
  }
}

TEST(RetryTaxonomy, AmbiguousStatusesRetryOnlyWhenIdempotent) {
  for (const StatusCode status :
       {StatusCode::kDeadlineExceeded, StatusCode::kTransportTimeout}) {
    EXPECT_TRUE(SigningClient::MayRetry(status, /*idempotent=*/true));
    // The forbidden case: a non-idempotent request must NEVER be resent
    // when the server might have executed it.
    EXPECT_FALSE(SigningClient::MayRetry(status, /*idempotent=*/false));
    EXPECT_FALSE(DefinitelyNotExecuted(status));
  }
}

TEST(RetryTaxonomy, PermanentStatusesNeverRetry) {
  for (const StatusCode status :
       {StatusCode::kOk, StatusCode::kUnknownTenant, StatusCode::kUnknownKey,
        StatusCode::kMalformedRequest, StatusCode::kFrameTooLarge,
        StatusCode::kShuttingDown}) {
    EXPECT_FALSE(SigningClient::MayRetry(status, /*idempotent=*/true));
    EXPECT_FALSE(SigningClient::MayRetry(status, /*idempotent=*/false));
  }
}

TEST(RetryTaxonomy, BackoffIsDeterministicBoundedAndCapped) {
  RetryPolicy policy;
  policy.base_backoff_micros = 100;
  policy.max_backoff_micros = 1000;
  // Two clients with the same seed replay the same schedule.
  Keystore keystore = OneTenantKeystore();
  SigningService service(std::move(keystore));
  InProcTransport transport(service);
  SigningClient a(transport, policy);
  SigningClient b(transport, policy);
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    const std::uint64_t delay_a = a.BackoffMicros(attempt);
    EXPECT_EQ(delay_a, b.BackoffMicros(attempt));
    // Jitter stays in [cap/2, cap] of the exponential value.
    const std::uint64_t cap =
        std::min<std::uint64_t>(100ull << (attempt - 1), 1000);
    EXPECT_GE(delay_a, cap / 2);
    EXPECT_LE(delay_a, cap);
  }
}

// ---------------------------------------------------------------------------
// SigningService end to end
// ---------------------------------------------------------------------------

SignRequest MakeRequest(const std::string& message,
                        std::uint64_t deadline_ticks = 0) {
  SignRequest request;
  request.request_id = 1;
  request.tenant_id = 1;
  request.key_id = 7;
  request.deadline_ticks = deadline_ticks;
  request.message = Bytes(message);
  return request;
}

TEST(SigningServiceTest, EndToEndSignatureVerifies) {
  SigningService service(OneTenantKeystore());
  const auto request = MakeRequest("sign me");
  const auto response =
      service.HandleRequestSync(EncodeSignRequest(request));
  ASSERT_EQ(response.status, StatusCode::kOk)
      << StatusCodeName(response.status);
  EXPECT_EQ(response.request_id, request.request_id);
  ASSERT_EQ(response.payload.size(), 64u);  // modulus-length signature
  const BigUInt signature = BigUInt::FromBytesBE(response.payload);
  EXPECT_TRUE(
      crypto::RsaVerifyPkcs1V15(TestKey(), request.message, signature));
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("server.admitted"), 1u);
  EXPECT_EQ(counters.CounterValue("server.ok"), 1u);
  EXPECT_EQ(counters.CounterValue("server.bad_signatures_released"), 0u);
}

TEST(SigningServiceTest, PingAndLookupTaxonomy) {
  SigningService service(OneTenantKeystore());
  SignRequest ping = MakeRequest("");
  ping.type = RequestType::kPing;
  EXPECT_EQ(service.HandleRequestSync(EncodeSignRequest(ping)).status,
            StatusCode::kOk);
  auto wrong_tenant = MakeRequest("x");
  wrong_tenant.tenant_id = 999;
  EXPECT_EQ(
      service.HandleRequestSync(EncodeSignRequest(wrong_tenant)).status,
      StatusCode::kUnknownTenant);
  auto wrong_key = MakeRequest("x");
  wrong_key.key_id = 999;
  EXPECT_EQ(service.HandleRequestSync(EncodeSignRequest(wrong_key)).status,
            StatusCode::kUnknownKey);
  EXPECT_EQ(service.HandleRequestSync(Bytes("garbage")).status,
            StatusCode::kMalformedRequest);
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("server.pings"), 1u);
  EXPECT_EQ(counters.CounterValue("server.unknown_tenant"), 1u);
  EXPECT_EQ(counters.CounterValue("server.unknown_key"), 1u);
  EXPECT_EQ(counters.CounterValue("server.malformed"), 1u);
  EXPECT_EQ(counters.CounterValue("server.admitted"), 0u);
}

TEST(SigningServiceTest, ExhaustedTokenBucketGivesTypedBackpressure) {
  TenantConfig config;
  config.burst = 1;
  config.refill_period_ticks = 60'000'000'000ull;  // one token a minute
  SigningService service(OneTenantKeystore(config));
  EXPECT_EQ(service.HandleRequestSync(EncodeSignRequest(MakeRequest("a")))
                .status,
            StatusCode::kOk);
  const auto refused =
      service.HandleRequestSync(EncodeSignRequest(MakeRequest("b")));
  EXPECT_EQ(refused.status, StatusCode::kRejectedBackpressure);
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("server.rejected_backpressure"), 1u);
  EXPECT_EQ(counters.CounterValue("server.ok"), 1u);
}

TEST(SigningServiceTest, ExpiredDeadlineIsTypedAndConserved) {
  SigningService service(OneTenantKeystore());
  // A 1-tick (1 ns) deadline always expires before a worker claims the
  // half-jobs.
  const auto response = service.HandleRequestSync(
      EncodeSignRequest(MakeRequest("too slow", /*deadline_ticks=*/1)));
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  service.Wait();
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("server.deadline_exceeded"), 1u);
  EXPECT_EQ(counters.CounterValue("server.ok"), 0u);
  // The conservation contract holds all the way down: every ExpService
  // job either completed or was deadline-cancelled.
  const obs::MetricsSnapshot service_counters =
      service.registry().Snapshot();
  EXPECT_EQ(service_counters.CounterValue("jobs.submitted"),
            service_counters.CounterValue("jobs.completed") +
                service_counters.CounterValue("jobs.cancelled"));
}

TEST(SigningServiceTest, OverloadShedsByPriorityWithTypedError) {
  Keystore keystore;
  TenantConfig flood;
  flood.priority = 15;
  flood.burst = 1000;
  flood.max_in_flight = 1000;
  TenantConfig victim;
  victim.priority = 0;
  victim.burst = 1000;
  victim.max_in_flight = 1000;
  keystore.AddTenant(1, flood);
  keystore.AddTenant(2, victim);
  keystore.AddKey(1, 7, TestKey());
  keystore.AddKey(2, 7, TestKey());

  SigningService::Options options;
  options.admission.queue_high_watermark = 2;
  options.service.workers = 1;
  SigningService service(std::move(keystore), options);

  // Pile up high-priority in-flight work past the watermark (depth 4 is
  // reached because the rising cutoff — 0,0,1,8 — stays at or below the
  // flooder's priority 15 for the first four admissions).
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    auto request = MakeRequest("flood");
    request.tenant_id = 1;
    service.HandleRequest(EncodeSignRequest(request),
                          [&done](SignResponse) { ++done; });
  }
  // The low-priority tenant is now below the rising cutoff.
  auto starved = MakeRequest("victim");
  starved.tenant_id = 2;
  const auto response =
      service.HandleRequestSync(EncodeSignRequest(starved));
  EXPECT_EQ(response.status, StatusCode::kShedOverload);
  service.Wait();
  EXPECT_EQ(
      service.registry().Snapshot().CounterValue("server.shed_overload"), 1u);
}

TEST(SigningServiceTest, OversizeFrameRejectedAtTransport) {
  SigningService service(OneTenantKeystore());
  InProcTransport transport(service);
  // A frame whose length prefix declares 1 MiB (over the 64 KiB cap).
  std::vector<std::uint8_t> oversize = {0x00, 0x00, 0x10, 0x00};
  auto future = transport.CallRaw(std::move(oversize));
  const auto response = future.get();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, StatusCode::kFrameTooLarge);
  // It never reached the service.
  EXPECT_EQ(service.registry().Snapshot().CounterValue("server.requests"), 0u);
}

TEST(SigningServiceTest, ClientSignsThroughFullWirePath) {
  SigningService service(OneTenantKeystore());
  InProcTransport transport(service);
  SigningClient client(transport);
  const auto message = Bytes("via the wire");
  const auto outcome = client.Sign(1, 7, message);
  ASSERT_EQ(outcome.status, StatusCode::kOk);
  EXPECT_EQ(outcome.attempts, 1u);
  EXPECT_TRUE(crypto::RsaVerifyPkcs1V15(
      TestKey(), message, BigUInt::FromBytesBE(outcome.signature)));
}

TEST(SigningServiceTest, NonIdempotentRequestNotRetriedAfterDeadline) {
  SigningService service(OneTenantKeystore());
  InProcTransport transport(service);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_micros = 1;
  SigningClient client(transport, policy);
  const auto message = Bytes("exactly once");
  // deadline_ticks = 1 -> every attempt comes back DEADLINE_EXCEEDED.
  const auto once = client.Sign(1, 7, message, /*deadline_ticks=*/1,
                                /*idempotent=*/false);
  EXPECT_EQ(once.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(once.attempts, 1u);  // ambiguous + non-idempotent: no retry
  const auto retried = client.Sign(1, 7, message, /*deadline_ticks=*/1,
                                   /*idempotent=*/true);
  EXPECT_EQ(retried.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(retried.attempts, 4u);  // idempotent: retried to exhaustion
}

TEST(SigningServiceTest, RejectsMalformedKeysUpFront) {
  auto key = TestKey();
  key.q = key.p;  // p == q: not a CRT key
  Keystore keystore;
  keystore.AddTenant(1, {});
  keystore.AddKey(1, 7, key);
  EXPECT_THROW(SigningService{std::move(keystore)}, std::invalid_argument);
}

TEST(SigningServiceTest, DestructorDrainsInFlightRequests) {
  std::atomic<int> responses{0};
  std::atomic<int> ok{0};
  {
    SigningService service(OneTenantKeystore());
    for (int i = 0; i < 8; ++i) {
      service.HandleRequest(EncodeSignRequest(MakeRequest("drain me")),
                            [&](SignResponse response) {
                              ++responses;
                              if (response.status == StatusCode::kOk) ++ok;
                            });
    }
    // Destroyed with work still in flight.
  }
  // Every admitted request got exactly one response, none were lost.
  EXPECT_EQ(responses.load(), 8);
  EXPECT_EQ(ok.load(), 8);
}

// A backend whose factory throws, i.e. an engine that fails on the worker
// thread the first time a job needs it.  Registered once per process.
const char* FailingEngineName() {
  static const char* const name = [] {
    core::EngineRegistry::Global().Register(
        "test-failing",
        {"test backend whose construction always fails", {},
         [](BigUInt, const core::EngineOptions&)
             -> std::unique_ptr<core::MmmEngine> {
           throw std::runtime_error("test-failing: engine fault");
         }});
    return "test-failing";
  }();
  return name;
}

// An engine failure on a worker is a compute fault of that attempt: the
// job callback still runs (with the error), the service re-signs within
// its bound and then answers kInternalRetrying, and Wait() returns.  The
// response wait is bounded so a lost response fails rather than hangs.
TEST(SigningServiceTest, EngineFailureIsAnsweredNotLost) {
  {
    core::ExpService::Options options;
    options.engine_name = FailingEngineName();
    core::ExpService exp(options);
    std::atomic<int> callbacks{0};
    std::atomic<bool> saw_error{false};
    auto future = exp.Submit(BigUInt{97}, BigUInt{5}, BigUInt{3},
                             [&](const core::ExpResult& result) {
                               ++callbacks;
                               saw_error = result.error != nullptr;
                             });
    EXPECT_THROW(future.get(), std::runtime_error);
    exp.Wait();
    EXPECT_EQ(callbacks.load(), 1);
    EXPECT_TRUE(saw_error.load());

    // RsaSignBatch surfaces the engine's own exception.
    const std::vector<BigUInt> messages{BigUInt{2}, BigUInt{3}};
    try {
      crypto::RsaSignBatch(TestKey(), messages, exp);
      ADD_FAILURE() << "RsaSignBatch released signatures from a failed engine";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "test-failing: engine fault");
    }
  }

  std::promise<SignResponse> promise;
  std::future<SignResponse> response = promise.get_future();
  SigningService::Options options;
  options.service.engine_name = FailingEngineName();
  SigningService service(OneTenantKeystore(), options);
  service.HandleRequest(EncodeSignRequest(MakeRequest("engine down")),
                        [&promise](SignResponse r) {
                          promise.set_value(std::move(r));
                        });
  ASSERT_EQ(response.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "admitted request got no response after an engine failure";
  EXPECT_EQ(response.get().status, StatusCode::kInternalRetrying);
  service.Wait();
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("server.admitted"), 1u);
  EXPECT_EQ(counters.CounterValue("server.retry_exhausted"), 1u);
  EXPECT_EQ(counters.CounterValue("server.faults_caught"), 3u);
  EXPECT_EQ(counters.CounterValue("server.internal_retries"), 2u);
  EXPECT_EQ(counters.CounterValue("server.ok"), 0u);
  EXPECT_EQ(counters.CounterValue("server.bad_signatures_released"), 0u);
}

}  // namespace
}  // namespace mont::server
