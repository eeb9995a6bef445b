// Tests for the batched async exponentiation service and the paired
// dual-channel exponentiation engine underneath it:
//
//   * PairedModExp fast engine == cycle-accurate dual-channel array ==
//     scalar oracle, including on two *different* equal-length moduli;
//   * a 10k-job multi-threaded property/stress run (mixed moduli, mixed
//     bit lengths, duplicate keys, zero/one/max-bit exponents) checked
//     bit-for-bit against a scalar Exponentiator oracle;
//   * determinism: paired and unpaired execution agree exactly;
//   * stats accounting: paired jobs are charged 3l+5 per MMM pair;
//   * the crypto entry points (RsaPrivateCrtPaired, RsaSignBatch,
//     Curve::ScalarMulBatch) driving the service end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bignum/gf2.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/exp_service.hpp"
#include "core/exponentiator.hpp"
#include "core/interleaved.hpp"
#include "core/schedule.hpp"
#include "obs/metrics.hpp"
#include "crypto/ecc.hpp"
#include "crypto/rsa.hpp"
#include "testutil.hpp"

namespace mont::core {
namespace {

using bignum::BigUInt;
using bignum::BitSerialMontgomery;
using bignum::RandomBigUInt;

// ---------------------------------------------------------------------------
// Dual-modulus interleaved array
// ---------------------------------------------------------------------------

TEST(InterleavedDualModulus, RejectsUnequalBitLengths) {
  EXPECT_THROW(InterleavedMmmc(BigUInt{23}, BigUInt{257}),
               std::invalid_argument);
  EXPECT_THROW(InterleavedMmmc(BigUInt{23}, BigUInt{22}),
               std::invalid_argument);
}

TEST(InterleavedDualModulus, ChannelsReduceByTheirOwnModulus) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {3u, 4u, 8u, 16u, 33u}) {
    const BigUInt n_a = rng.OddExactBits(bits);
    BigUInt n_b = rng.OddExactBits(bits);
    while (n_b == n_a) n_b = rng.OddExactBits(bits);
    InterleavedMmmc circuit(n_a, n_b);
    const BitSerialMontgomery ref_a(n_a), ref_b(n_b);
    const BigUInt two_na = n_a << 1, two_nb = n_b << 1;
    for (int trial = 0; trial < 8; ++trial) {
      const BigUInt xa = rng.Below(two_na), ya = rng.Below(two_na);
      const BigUInt xb = rng.Below(two_nb), yb = rng.Below(two_nb);
      const auto pair = circuit.MultiplyPair(xa, ya, xb, yb);
      EXPECT_EQ(pair.a, ref_a.MultiplyAlg2(xa, ya)) << "bits=" << bits;
      EXPECT_EQ(pair.b, ref_b.MultiplyAlg2(xb, yb)) << "bits=" << bits;
      EXPECT_EQ(pair.cycles, InterleavedMmmc::PairCycles(bits));
    }
  }
}

TEST(InterleavedDualModulus, OperandBoundsArePerChannel) {
  const BigUInt n_a{19}, n_b{29};  // both 5 bits; 2N_a = 38, 2N_b = 58
  InterleavedMmmc circuit(n_a, n_b);
  EXPECT_THROW(
      circuit.MultiplyPair(BigUInt{40}, BigUInt{1}, BigUInt{1}, BigUInt{1}),
      std::invalid_argument);
  // 40 < 2N_b is legal on channel B even though it exceeds 2N_a.
  const auto pair =
      circuit.MultiplyPair(BigUInt{1}, BigUInt{1}, BigUInt{40}, BigUInt{3});
  const BitSerialMontgomery ref_b(n_b);
  EXPECT_EQ(pair.b, ref_b.MultiplyAlg2(BigUInt{40}, BigUInt{3}));
}

// ---------------------------------------------------------------------------
// PairedModExp
// ---------------------------------------------------------------------------

TEST(PairedModExp, FastAndCycleAccurateMatchOracle) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {5u, 8u, 10u}) {
    const BigUInt n_a = rng.OddExactBits(bits);
    BigUInt n_b = rng.OddExactBits(bits);
    while (n_b == n_a) n_b = rng.OddExactBits(bits);
    const auto engine_a = MakeEngine("bit-serial", n_a);
    const auto engine_b = MakeEngine("bit-serial", n_b);
    InterleavedMmmc array(n_a, n_b);
    for (int trial = 0; trial < 4; ++trial) {
      const BigUInt base_a = rng.Below(n_a), base_b = rng.Below(n_b);
      const BigUInt exp_a = rng.ExactBits(bits), exp_b = rng.ExactBits(bits / 2);
      const auto fast = PairedModExp(*engine_a, base_a, exp_a, *engine_b,
                                     base_b, exp_b);
      const auto accurate = PairedModExp(*engine_a, base_a, exp_a, *engine_b,
                                         base_b, exp_b, &array);
      EXPECT_EQ(fast.a, BigUInt::ModExp(base_a, exp_a, n_a));
      EXPECT_EQ(fast.b, BigUInt::ModExp(base_b, exp_b, n_b));
      EXPECT_EQ(fast.a, accurate.a);
      EXPECT_EQ(fast.b, accurate.b);
      EXPECT_EQ(fast.stats.paired_issues, accurate.stats.paired_issues);
      EXPECT_EQ(fast.stats.single_issues, accurate.stats.single_issues);
      EXPECT_EQ(fast.stats.engine_cycles, accurate.stats.engine_cycles);
    }
  }
}

// Backends without pairable streams (word-serial datapaths) cannot claim
// the dual-channel credit: PairedModExp rejects them outright, and the
// cycle-accurate array path additionally rejects any engine whose
// Montgomery parameter is not the array's R = 2^(l+2).
TEST(PairedModExp, RejectsUnpairableBackends) {
  const BigUInt n{23};
  InterleavedMmmc array(n, n);
  const auto word = MakeEngine("word-mont", n);
  ASSERT_FALSE(word->Caps().pairable_streams);
  EXPECT_THROW(PairedModExp(*word, BigUInt{2}, BigUInt{3}, *word, BigUInt{2},
                            BigUInt{3}),
               std::invalid_argument);
  EXPECT_THROW(PairedModExp(*word, BigUInt{2}, BigUInt{3}, *word, BigUInt{2},
                            BigUInt{3}, &array),
               std::invalid_argument);
}

TEST(PairedModExp, ChargesPairCyclesAndBeatsSequentialIssue) {
  auto rng = test::TestRng();
  const std::size_t bits = 32;
  const BigUInt n = rng.OddExactBits(bits);
  const auto engine = MakeEngine("bit-serial", n);
  const std::size_t l = engine->l();
  const BigUInt base_a = rng.Below(n), base_b = rng.Below(n);
  const BigUInt exp_a = rng.BalancedExactBits(bits);
  const BigUInt exp_b = rng.BalancedExactBits(bits);
  const auto paired =
      PairedModExp(*engine, base_a, exp_a, *engine, base_b, exp_b);

  // Cycle identity: every paired issue costs 3l+5, every single 3l+4.
  EXPECT_EQ(paired.stats.engine_cycles,
            paired.stats.paired_issues * PairedMultiplyCycles(l) +
                paired.stats.single_issues * MultiplyCycles(l));
  // The shorter stream is fully paired: issue counts add up to both jobs'
  // MMM totals.
  const std::uint64_t ops_a = paired.stats_a.mmm_invocations;
  const std::uint64_t ops_b = paired.stats_b.mmm_invocations;
  EXPECT_EQ(paired.stats.paired_issues, std::min(ops_a, ops_b));
  EXPECT_EQ(paired.stats.single_issues, std::max(ops_a, ops_b) -
                                            std::min(ops_a, ops_b));
  // Against sequential issue of the same MMMs, pairing approaches 2x.
  const std::uint64_t sequential = (ops_a + ops_b) * MultiplyCycles(l);
  EXPECT_LT(paired.stats.engine_cycles, sequential);
  const double speedup = static_cast<double>(sequential) /
                         static_cast<double>(paired.stats.engine_cycles);
  EXPECT_GT(speedup, 1.8);
}

TEST(PairedModExp, EdgeExponents) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  const auto engine = MakeEngine("bit-serial", n);
  const BigUInt base = rng.Below(n);
  // Zero exponent on one channel: that stream contributes no MMMs and the
  // partner runs entirely single-issue.
  const auto zero_side =
      PairedModExp(*engine, base, BigUInt{0}, *engine, base, BigUInt{5});
  EXPECT_TRUE(zero_side.a.IsOne());
  EXPECT_EQ(zero_side.b, BigUInt::ModExp(base, BigUInt{5}, n));
  EXPECT_EQ(zero_side.stats.paired_issues, 0u);
  // Both zero: no MMM at all.
  const auto both_zero =
      PairedModExp(*engine, base, BigUInt{0}, *engine, base, BigUInt{0});
  EXPECT_EQ(both_zero.stats.engine_cycles, 0u);
  // exponent = 1 still round-trips through the Montgomery domain.
  const auto one =
      PairedModExp(*engine, base, BigUInt{1}, *engine, base, BigUInt{1});
  EXPECT_EQ(one.a, base);
  EXPECT_EQ(one.b, base);
}

TEST(PairedModExp, RejectsUnequalLengths) {
  const auto engine_a = MakeEngine("bit-serial", BigUInt{23});
  const auto engine_b = MakeEngine("bit-serial", BigUInt{257});
  EXPECT_THROW(PairedModExp(*engine_a, BigUInt{2}, BigUInt{3}, *engine_b,
                            BigUInt{2}, BigUInt{3}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ExpService: property/stress suite
// ---------------------------------------------------------------------------

struct StressJob {
  std::size_t modulus_index;
  BigUInt base;
  BigUInt exponent;
};

// 10k randomized jobs from multiple submitter threads over a pool of mixed
// moduli (duplicate bit lengths so opportunistic pairing fires), every
// result checked bit-for-bit against the scalar Exponentiator oracle.
void StressManyThreadedJobs(SchedulerKind scheduler) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kJobsPerThread = 2500;

  // Modulus pool: two distinct moduli per bit length plus one duplicated
  // entry (same BigUInt twice) so the cache sees repeated keys.
  auto rng = test::TestRng();
  std::vector<BigUInt> moduli;
  for (const std::size_t bits : {8u, 16u, 24u, 32u, 48u, 64u}) {
    moduli.push_back(rng.OddExactBits(bits));
    moduli.push_back(rng.OddExactBits(bits));
  }
  moduli.push_back(moduli[0]);  // duplicate key

  ExpService::Options options;
  options.workers = 4;
  options.engine_cache_capacity = 6;  // smaller than the pool: forces churn
  options.scheduler = scheduler;
  ExpService service(options);

  std::vector<std::vector<StressJob>> jobs(kThreads);
  std::vector<std::vector<std::future<ExpService::Result>>> futures(kThreads);
  for (auto& lane : futures) lane.resize(kJobsPerThread);

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      RandomBigUInt thread_rng(test::TestSeed(t + 1));
      for (std::size_t j = 0; j < kJobsPerThread; ++j) {
        StressJob job;
        job.modulus_index =
            static_cast<std::size_t>(thread_rng.Engine().NextBelow(
                static_cast<std::uint64_t>(moduli.size())));
        const BigUInt& n = moduli[job.modulus_index];
        job.base = thread_rng.Below(n << 1);  // also exercises base >= n
        switch (thread_rng.Engine().NextBelow(8)) {
          case 0:
            job.exponent = BigUInt{0};
            break;
          case 1:
            job.exponent = BigUInt{1};
            break;
          case 2:
            // max-bit exponent: all ones at the modulus length.
            job.exponent = BigUInt::PowerOfTwo(n.BitLength()) - BigUInt{1};
            break;
          default:
            job.exponent = thread_rng.Below(n);
            break;
        }
        futures[t][j] = service.Submit(n, job.base, job.exponent);
        jobs[t].push_back(std::move(job));
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  service.Wait();

  // Scalar oracle, one engine per modulus (precomputation paid once).
  std::vector<Exponentiator> oracles;
  oracles.reserve(moduli.size());
  for (const BigUInt& n : moduli) oracles.emplace_back(n);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t j = 0; j < kJobsPerThread; ++j) {
      const StressJob& job = jobs[t][j];
      const ExpService::Result result = futures[t][j].get();
      ASSERT_EQ(result.value,
                oracles[job.modulus_index].ModExp(job.base, job.exponent))
          << "thread " << t << " job " << j;
    }
  }

  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("jobs.submitted"),
            kThreads * kJobsPerThread);
  EXPECT_EQ(counters.CounterValue("jobs.completed"),
            kThreads * kJobsPerThread);
  // With duplicate bit lengths queued from 4 threads, pairing must fire.
  EXPECT_GT(counters.CounterValue("issues.paired"), 0u);
  // Repeated moduli must hit the engine cache, and the pool exceeding the
  // capacity must evict.
  EXPECT_GT(counters.CounterValue("engine.cache_hits"), 0u);
  EXPECT_GT(counters.CounterValue("engine.cache_evictions"), 0u);
}

TEST(ExpService, StressManyThreadedJobsMatchScalarOracle) {
  StressManyThreadedJobs(SchedulerKind::kStealing);
}

TEST(ExpService, StressManyThreadedJobsMatchScalarOracleSharedQueue) {
  StressManyThreadedJobs(SchedulerKind::kSharedQueue);
}

// Paired (dual-channel) and unpaired execution must agree bit for bit.
TEST(ExpService, PairedAndUnpairedAreBitIdentical) {
  auto rng = test::TestRng();
  std::vector<BigUInt> moduli;
  for (const std::size_t bits : {16u, 16u, 32u, 32u}) {
    moduli.push_back(rng.OddExactBits(bits));
  }
  constexpr std::size_t kJobs = 200;
  std::vector<StressJob> jobs;
  for (std::size_t j = 0; j < kJobs; ++j) {
    StressJob job;
    job.modulus_index = static_cast<std::size_t>(
        rng.Engine().NextBelow(static_cast<std::uint64_t>(moduli.size())));
    const BigUInt& n = moduli[job.modulus_index];
    job.base = rng.Below(n);
    job.exponent = rng.Below(n);
    jobs.push_back(std::move(job));
  }

  const auto run = [&](bool enable_pairing, std::size_t workers) {
    ExpService::Options options;
    options.workers = workers;
    options.enable_pairing = enable_pairing;
    ExpService service(options);
    std::vector<std::future<ExpService::Result>> futures;
    futures.reserve(kJobs);
    for (const StressJob& job : jobs) {
      futures.push_back(service.Submit(moduli[job.modulus_index], job.base,
                                       job.exponent));
    }
    std::vector<BigUInt> values;
    values.reserve(kJobs);
    std::uint64_t paired_jobs = 0;
    for (auto& future : futures) {
      ExpService::Result result = future.get();
      if (result.paired) ++paired_jobs;
      values.push_back(std::move(result.value));
    }
    return std::pair<std::vector<BigUInt>, std::uint64_t>(std::move(values),
                                                          paired_jobs);
  };

  const auto [paired_values, paired_count] = run(/*enable_pairing=*/true, 2);
  const auto [unpaired_values, unpaired_count] =
      run(/*enable_pairing=*/false, 1);
  EXPECT_GT(paired_count, 0u);
  EXPECT_EQ(unpaired_count, 0u);
  ASSERT_EQ(paired_values.size(), unpaired_values.size());
  for (std::size_t j = 0; j < kJobs; ++j) {
    EXPECT_EQ(paired_values[j], unpaired_values[j]) << "job " << j;
  }
}

TEST(ExpService, BondedPairReportsPairCycleAccounting) {
  auto rng = test::TestRng();
  const std::size_t bits = 48;
  const BigUInt n_a = rng.OddExactBits(bits);
  const BigUInt n_b = rng.OddExactBits(bits);
  ExpService::Options options;
  options.workers = 1;
  ExpService service(options);
  auto [future_a, future_b] =
      service.SubmitPair(n_a, rng.Below(n_a), rng.BalancedExactBits(bits),
                         n_b, rng.Below(n_b), rng.BalancedExactBits(bits));
  const ExpService::Result result_a = future_a.get();
  const ExpService::Result result_b = future_b.get();
  EXPECT_TRUE(result_a.paired);
  EXPECT_TRUE(result_b.paired);
  // Both report the same issue group, charged 3l+5 per MMM pair.
  EXPECT_EQ(result_a.stats.engine_cycles, result_b.stats.engine_cycles);
  EXPECT_EQ(result_a.stats.paired_issues, result_b.stats.paired_issues);
  EXPECT_GT(result_a.stats.paired_issues, 0u);
  EXPECT_EQ(result_a.stats.engine_cycles,
            result_a.stats.paired_issues * PairedMultiplyCycles(bits) +
                result_a.stats.single_issues * MultiplyCycles(bits));
  // And the pair beats running its MMMs sequentially.
  const std::uint64_t sequential =
      (result_a.stats.mmm_invocations + result_b.stats.mmm_invocations) *
      MultiplyCycles(bits);
  EXPECT_LT(result_a.stats.engine_cycles, sequential);
}

TEST(ExpService, SubmitBatchAndCallbacks) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(32);
  std::vector<BigUInt> bases, exponents;
  for (int j = 0; j < 16; ++j) {
    bases.push_back(rng.Below(n));
    exponents.push_back(rng.Below(n));
  }
  ExpService service;
  auto futures = service.SubmitBatch(n, bases, exponents);
  std::atomic<int> callbacks{0};
  for (int j = 0; j < 4; ++j) {
    service.Submit(n, bases[j], exponents[j],
                   [&callbacks](const ExpService::Result&) { ++callbacks; });
  }
  service.Wait();
  EXPECT_EQ(callbacks.load(), 4);
  ASSERT_EQ(futures.size(), bases.size());
  Exponentiator oracle(n);
  for (std::size_t j = 0; j < futures.size(); ++j) {
    EXPECT_EQ(futures[j].get().value, oracle.ModExp(bases[j], exponents[j]));
  }
  EXPECT_THROW(service.SubmitBatch(n, bases, {}), std::invalid_argument);
}

TEST(ExpService, RejectsBadModuli) {
  ExpService service;
  EXPECT_THROW(service.Submit(BigUInt{24}, BigUInt{2}, BigUInt{3}),
               std::invalid_argument);
  EXPECT_THROW(service.Submit(BigUInt{1}, BigUInt{2}, BigUInt{3}),
               std::invalid_argument);
  EXPECT_THROW(service.SubmitPair(BigUInt{23}, BigUInt{2}, BigUInt{3},
                                  BigUInt{8}, BigUInt{2}, BigUInt{3}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Engine selection through the registry
// ---------------------------------------------------------------------------

TEST(ExpService, NamedBackendsProduceIdenticalResults) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(10);
  const BigUInt base = rng.Below(n);
  const BigUInt exponent = rng.ExactBits(10);
  const BigUInt want = BigUInt::ModExp(base, exponent, n);
  for (const char* name :
       {"bit-serial", "word-mont", "high-radix", "blum-paar", "mmmc"}) {
    ExpService::Options options;
    options.workers = 1;
    options.engine_name = name;
    ExpService service(options);
    std::vector<std::future<ExpService::Result>> futures;
    for (int j = 0; j < 4; ++j) {
      futures.push_back(service.Submit(n, base, exponent));
    }
    for (auto& future : futures) {
      EXPECT_EQ(future.get().value, want) << name;
    }
    // The pairing credit belongs to the array-schedule family only; a
    // word-serial backend silently falls back to solo issue.
    if (!EngineRegistry::Global().Find(name)->caps.pairable_streams) {
      EXPECT_EQ(
          service.registry().Snapshot().CounterValue("issues.paired"), 0u)
          << name;
    }
  }
}

TEST(ExpService, RejectsUnknownOrCapabilityMismatchedEngine) {
  ExpService::Options unknown;
  unknown.engine_name = "no-such-engine";
  EXPECT_THROW(ExpService{unknown}, std::invalid_argument);

  ExpService::Options gf2_on_gfp_backend;
  gf2_on_gfp_backend.engine_name = "word-mont";
  gf2_on_gfp_backend.engine_options.field = EngineField::kGf2;
  EXPECT_THROW(ExpService{gf2_on_gfp_backend}, std::invalid_argument);
}

// A GF(2^m) service: the modulus is the field polynomial and every job is
// a field exponentiation — here Fermat inversions checked against the
// software field, exactly what BinaryCurve::ScalarMulBatch submits.
TEST(ExpService, Gf2FieldExponentiationService) {
  const BigUInt f{0x11b};  // AES field
  const bignum::Gf2Field field(f);
  ExpService::Options options;
  options.engine_options.field = EngineField::kGf2;
  ExpService service(options);
  auto rng = test::TestRng();
  const BigUInt inv_exponent = BigUInt::PowerOfTwo(8) - BigUInt{2};
  for (int j = 0; j < 8; ++j) {
    BigUInt a = rng.Below(BigUInt::PowerOfTwo(8));
    if (a.IsZero()) a = BigUInt{1};
    EXPECT_EQ(service.Submit(f, a, inv_exponent).get().value,
              field.Inverse(a));
  }
  // Same-length polynomial jobs pair on the dual-field array like any
  // other equal-l jobs.
  std::vector<BigUInt> bases, exponents;
  for (int j = 1; j <= 8; ++j) {
    bases.push_back(BigUInt{static_cast<std::uint64_t>(j * 17 % 255 + 1)});
    exponents.push_back(inv_exponent);
  }
  for (auto& future : service.SubmitBatch(f, bases, exponents)) future.get();
  EXPECT_GT(service.registry().Snapshot().CounterValue("issues.paired"), 0u);
  // Field-polynomial validation: f(0) must be 1 and deg(f) >= 2.
  EXPECT_THROW(service.Submit(BigUInt{0x12}, BigUInt{1}, BigUInt{1}),
               std::invalid_argument);
  EXPECT_THROW(service.Submit(BigUInt{0x3}, BigUInt{1}, BigUInt{1}),
               std::invalid_argument);
}

TEST(ExpService, EngineCacheReusesHotModulus) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(32);
  ExpService::Options options;
  options.workers = 1;
  options.engine_cache_capacity = 2;
  ExpService service(options);
  for (int j = 0; j < 6; ++j) {
    service.Submit(n, rng.Below(n), rng.Below(n)).get();
  }
  obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("engine.cache_misses"), 1u);
  EXPECT_EQ(counters.CounterValue("engine.cache_hits"), 5u);
  // Rotating through more moduli than the cache holds must evict.
  for (const std::size_t bits : {16u, 24u, 40u}) {
    const BigUInt other = rng.OddExactBits(bits);
    service.Submit(other, rng.Below(other), rng.Below(other)).get();
  }
  counters = service.registry().Snapshot();
  EXPECT_GT(counters.CounterValue("engine.cache_evictions"), 0u);
}

// ---------------------------------------------------------------------------
// Per-job options: engine overrides and exponent blinding
// ---------------------------------------------------------------------------

// Mixed-engine stress: jobs carrying per-job backend overrides (including
// none) interleave on one service from several submitter threads; every
// result must match the scalar oracle regardless of which datapath served
// it, and overridden engines must key the cache separately.
TEST(ExpServiceJobOptions, MixedEngineStressMatchesScalarOracle) {
  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kJobsPerThread = 120;
  const std::array<const char*, 4> engines = {"", "bit-serial", "word-mont",
                                              "mmmc"};
  auto rng = test::TestRng();
  std::vector<BigUInt> moduli;
  for (const std::size_t bits : {12u, 16u, 16u, 24u}) {
    moduli.push_back(rng.OddExactBits(bits));
  }

  ExpService::Options options;
  options.workers = 3;
  ExpService service(options);

  struct MixedJob {
    std::size_t modulus_index = 0;
    std::size_t engine_index = 0;
    BigUInt base;
    BigUInt exponent;
  };
  std::vector<std::vector<MixedJob>> jobs(kThreads);
  std::vector<std::vector<std::future<ExpService::Result>>> futures(kThreads);
  for (auto& lane : futures) lane.resize(kJobsPerThread);
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      RandomBigUInt thread_rng(test::TestSeed(t + 17));
      for (std::size_t j = 0; j < kJobsPerThread; ++j) {
        MixedJob job;
        job.modulus_index = static_cast<std::size_t>(
            thread_rng.Engine().NextBelow(moduli.size()));
        job.engine_index = static_cast<std::size_t>(
            thread_rng.Engine().NextBelow(engines.size()));
        const BigUInt& n = moduli[job.modulus_index];
        job.base = thread_rng.Below(n);
        job.exponent = thread_rng.Below(n);
        ExpService::JobOptions job_options;
        job_options.engine_name = engines[job.engine_index];
        futures[t][j] = service.Submit(n, job.base, job.exponent,
                                       std::move(job_options));
        jobs[t].push_back(std::move(job));
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  service.Wait();

  std::vector<Exponentiator> oracles;
  oracles.reserve(moduli.size());
  for (const BigUInt& n : moduli) oracles.emplace_back(n);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t j = 0; j < kJobsPerThread; ++j) {
      const MixedJob& job = jobs[t][j];
      const ExpService::Result result = futures[t][j].get();
      ASSERT_EQ(result.value,
                oracles[job.modulus_index].ModExp(job.base, job.exponent))
          << "thread " << t << " job " << j << " engine '"
          << engines[job.engine_index] << "'";
      // word-mont has no pairable streams: such a job must never have
      // been co-scheduled onto a dual-channel array.
      if (std::string_view(engines[job.engine_index]) == "word-mont") {
        EXPECT_FALSE(result.paired);
      }
    }
  }
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("jobs.completed"),
            kThreads * kJobsPerThread);
  // Pairable jobs of equal length still pair around the solo overrides.
  EXPECT_GT(counters.CounterValue("issues.paired"), 0u);
}

TEST(ExpServiceJobOptions, OverrideFallsBackToServiceDefault) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(24);
  ExpService::Options options;
  options.workers = 1;
  options.engine_name = "high-radix";
  ExpService service(options);
  const BigUInt base = rng.Below(n);
  const BigUInt exponent = rng.Below(n);
  // Empty override = the service's engine; explicit override = its own.
  const BigUInt via_default =
      service.Submit(n, base, exponent, ExpService::JobOptions{}).get().value;
  ExpService::JobOptions override_options;
  override_options.engine_name = "mmmc";
  const BigUInt via_override =
      service.Submit(n, base, exponent, override_options).get().value;
  EXPECT_EQ(via_default, via_override);
  EXPECT_EQ(via_default, Exponentiator(n).ModExp(base, exponent));
  // Both backends (and only those) populated the cache.
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("engine.cache_misses"), 2u);
}

// A non-pairable *default* backend must not disable pairing for jobs
// whose override selects a pairable one: the word-serial default issues
// solo (its jobs carry solo queue keys), while bit-serial override jobs
// of equal length still co-schedule.
TEST(ExpServiceJobOptions, PairableOverridesPairOnNonPairableDefault) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(20);
  ExpService::Options options;
  options.workers = 1;
  options.engine_name = "word-mont";
  ExpService service(options);
  ExpService::JobOptions pairable;
  pairable.engine_name = "bit-serial";
  Exponentiator oracle(n);
  std::vector<BigUInt> bases, exponents;
  std::vector<std::future<ExpService::Result>> defaults, overridden;
  for (int j = 0; j < 60; ++j) {
    bases.push_back(rng.Below(n));
    exponents.push_back(rng.Below(n));
    defaults.push_back(service.Submit(n, bases.back(), exponents.back()));
    overridden.push_back(
        service.Submit(n, bases.back(), exponents.back(), pairable));
  }
  for (int j = 0; j < 60; ++j) {
    const ExpService::Result via_default = defaults[j].get();
    const ExpService::Result via_override = overridden[j].get();
    const BigUInt want = oracle.ModExp(bases[j], exponents[j]);
    ASSERT_EQ(via_default.value, want);
    ASSERT_EQ(via_override.value, want);
    EXPECT_FALSE(via_default.paired) << "word-serial default must issue solo";
  }
  EXPECT_GT(service.registry().Snapshot().CounterValue("issues.paired"), 0u)
      << "equal-length pairable overrides must co-schedule";
}

// A bonded SubmitPair on a non-pairable backend pops as a bonded group
// but executes as two solo issues — and the counters must say so rather
// than report fictitious dual-channel throughput.
TEST(ExpServiceJobOptions, BondedPairOnNonPairableBackendCountsSoloIssues) {
  auto rng = test::TestRng();
  const BigUInt n_a = rng.OddExactBits(16);
  const BigUInt n_b = rng.OddExactBits(16);
  ExpService::Options options;
  options.workers = 1;
  options.engine_name = "word-mont";
  ExpService service(options);
  const BigUInt base = BigUInt{7}, exponent = BigUInt{13};
  auto [first, second] = service.SubmitPair(n_a, base, exponent, n_b, base,
                                            exponent);
  const ExpService::Result result_a = first.get();
  const ExpService::Result result_b = second.get();
  EXPECT_EQ(result_a.value, BigUInt::ModExp(base, exponent, n_a));
  EXPECT_EQ(result_b.value, BigUInt::ModExp(base, exponent, n_b));
  EXPECT_FALSE(result_a.paired);
  EXPECT_FALSE(result_b.paired);
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("issues.paired"), 0u);
  EXPECT_EQ(counters.CounterValue("issues.single"), 2u);
}

TEST(ExpServiceJobOptions, RejectsUnknownOrMismatchedOverride) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  ExpService service;
  ExpService::JobOptions bad_name;
  bad_name.engine_name = "no-such-engine";
  EXPECT_THROW(service.Submit(n, BigUInt{2}, BigUInt{3}, bad_name),
               std::invalid_argument);
  ExpService::JobOptions blind_no_bits;
  blind_no_bits.exponent_blind_order = BigUInt{6};
  blind_no_bits.exponent_blind_bits = 0;
  EXPECT_THROW(service.Submit(n, BigUInt{2}, BigUInt{3}, blind_no_bits),
               std::invalid_argument);
  // GF(2^m) service: a GF(p)-only override must be rejected at Submit.
  ExpService::Options gf2_options;
  gf2_options.engine_name = "bit-serial";
  gf2_options.engine_options.field = EngineField::kGf2;
  ExpService gf2_service(gf2_options);
  const BigUInt f{0b1011};  // x^3 + x + 1
  ExpService::JobOptions gfp_only;
  gfp_only.engine_name = "word-mont";
  EXPECT_THROW(gf2_service.Submit(f, BigUInt{0b10}, BigUInt{3}, gfp_only),
               std::invalid_argument);
}

// Exponent blinding through the service: same results as unblinded jobs
// (the blinding order is a multiple of every base's order), randomized
// schedule visible as extra MMM invocations in the stats.
TEST(ExpServiceJobOptions, ExponentBlindingSameValuesMoreOperations) {
  auto rng = test::TestRng();
  const crypto::RsaKeyPair key = crypto::GenerateRsaKey(64, rng);
  const BigUInt lambda = crypto::RsaLambda(key);
  ExpService service;
  for (int trial = 0; trial < 4; ++trial) {
    const BigUInt base = rng.Below(key.n);
    const BigUInt exponent = rng.Below(key.n);
    const ExpService::Result plain =
        service.Submit(key.n, base, exponent).get();
    ExpService::JobOptions blind;
    blind.exponent_blind_order = lambda;
    blind.exponent_blind_bits = 12;
    const ExpService::Result blinded =
        service.Submit(key.n, base, exponent, blind).get();
    EXPECT_EQ(blinded.value, plain.value);
    EXPECT_GT(blinded.stats.mmm_invocations, plain.stats.mmm_invocations);
  }
}

// ---------------------------------------------------------------------------
// Crypto entry points driving the service end to end
// ---------------------------------------------------------------------------

TEST(ExpServiceCrypto, RsaPrivateCrtPairedMatchesAndSavesCycles) {
  auto rng = test::TestRng();
  const crypto::RsaKeyPair key = crypto::GenerateRsaKey(128, rng);
  for (int trial = 0; trial < 3; ++trial) {
    const BigUInt m = rng.Below(key.n);
    const BigUInt c = crypto::RsaPublic(key, m);
    EngineStats stats;
    EXPECT_EQ(crypto::RsaPrivateCrtPaired(key, c, &stats), m);
    EXPECT_GT(stats.paired_issues, 0u);
    const std::size_t l = key.p.BitLength();
    EXPECT_EQ(stats.engine_cycles,
              stats.paired_issues * PairedMultiplyCycles(l) +
                  stats.single_issues * MultiplyCycles(l));
  }
}

TEST(ExpServiceCrypto, RsaSignBatchMatchesScalarPaths) {
  auto rng = test::TestRng();
  const crypto::RsaKeyPair key = crypto::GenerateRsaKey(96, rng);
  std::vector<BigUInt> messages;
  for (int j = 0; j < 12; ++j) messages.push_back(rng.Below(key.n));
  ExpService service;
  const std::vector<BigUInt> signatures =
      crypto::RsaSignBatch(key, messages, service);
  ASSERT_EQ(signatures.size(), messages.size());
  for (std::size_t j = 0; j < messages.size(); ++j) {
    EXPECT_EQ(signatures[j], crypto::RsaPrivate(key, messages[j]));
    EXPECT_EQ(signatures[j], crypto::RsaPrivateCrt(key, messages[j]));
  }
  // The pipelined CRT submits halves independently; the scheduler still
  // pairs the equal-length streams (same message or across messages).
  EXPECT_GT(service.registry().Snapshot().CounterValue("issues.paired"), 0u);
}

TEST(ExpServiceCrypto, EccScalarMulBatchMatchesScalarMul) {
  const crypto::Curve tiny(crypto::CurveParams::Tiny97());
  ExpService service;
  std::vector<BigUInt> scalars;
  for (std::uint64_t k = 0; k < 9; ++k) scalars.push_back(BigUInt{k});
  const auto batch = tiny.ScalarMulBatch(scalars, tiny.Generator(), service);
  ASSERT_EQ(batch.size(), scalars.size());
  for (std::size_t j = 0; j < scalars.size(); ++j) {
    EXPECT_EQ(batch[j], tiny.ScalarMul(scalars[j], tiny.Generator()))
        << "k = " << j;
  }
  // Infinity input maps to infinity outputs.
  const auto at_infinity =
      tiny.ScalarMulBatch(scalars, crypto::AffinePoint::Infinity(), service);
  for (const crypto::AffinePoint& point : at_infinity) {
    EXPECT_TRUE(point.infinity);
  }

  auto rng = test::TestRng();
  const crypto::Curve p192(crypto::CurveParams::Secp192r1());
  std::vector<BigUInt> big_scalars;
  for (int j = 0; j < 3; ++j) {
    big_scalars.push_back(rng.Below(p192.Params().order));
  }
  const auto big_batch =
      p192.ScalarMulBatch(big_scalars, p192.Generator(), service);
  for (std::size_t j = 0; j < big_scalars.size(); ++j) {
    EXPECT_EQ(big_batch[j], p192.ScalarMul(big_scalars[j], p192.Generator()));
  }
}

// ---------------------------------------------------------------------------
// DeterministicExecutor: the virtual-clock scheduler harness.  Every
// hold/steal/unpair decision replays from the submit trace alone, so
// these tests pin down scheduling *behaviour*, not just results.
// ---------------------------------------------------------------------------

// Sums the array-busy virtual cycles across records, counting each
// issue group (a paired group shares one start/finish) exactly once.
std::uint64_t BusyCycles(
    const std::vector<DeterministicExecutor::JobRecord>& records) {
  std::set<std::tuple<std::size_t, std::uint64_t, std::uint64_t>> groups;
  for (const auto& record : records) {
    groups.emplace(record.worker, record.start_tick, record.finish_tick);
  }
  std::uint64_t busy = 0;
  for (const auto& [worker, start, finish] : groups) busy += finish - start;
  return busy;
}

// FNV-1a-64 over every field of every record, in record order — pins a
// whole schedule to one number.
std::uint64_t RecordsDigest(
    const std::vector<DeterministicExecutor::JobRecord>& records) {
  std::string text;
  for (const auto& r : records) {
    text += std::to_string(r.id) + ':' + std::to_string(r.submit_tick) + ':' +
            std::to_string(r.start_tick) + ':' +
            std::to_string(r.finish_tick) + ':' + std::to_string(r.worker) +
            ':' + char('0' + r.paired) + char('0' + r.stolen) +
            char('0' + r.unpaired_by_timeout) + char('0' + r.bonded) +
            char('0' + r.cancelled) + ';';
  }
  return test::Fnv1a64(text);
}

// Virtual duration of one solo job on `n` under the default backend.
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

TEST(DeterministicExecutor, VirtualClockDrivesHoldPairAndUnpairDecisions) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(48);
  const BigUInt base = rng.Below(n);
  const BigUInt exponent = rng.Below(n);
  const std::uint64_t solo_ticks = CalibrateSoloTicks(n, base, exponent);
  ASSERT_GT(solo_ticks, 0u);

  ExpService::Options options;
  options.workers = 1;
  options.unpair_timeout = solo_ticks / 4;
  DeterministicExecutor exec(options);
  // t=0: idle pool, dispatches immediately and occupies the one worker.
  exec.SubmitAt(0, n, base, exponent);
  // Two fast arrivals make the key hot; the pool is busy, so the lone
  // third arrival is held and pairs when the fourth shows up in time.
  exec.SubmitAt(10, n, base, exponent);
  exec.SubmitAt(20, n, base, exponent);
  // A fourth arrival after the pair forms is held again — and this
  // time no partner ever comes, so the age timeout releases it solo.
  exec.SubmitAt(30, n, base, exponent);
  exec.RunUntilIdle();

  const obs::MetricsSnapshot counters = exec.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("jobs.completed"), 4u);
  EXPECT_EQ(counters.CounterValue("sched.holds"), 2u);
  EXPECT_EQ(counters.CounterValue("sched.hold_pairs"), 1u);
  EXPECT_EQ(counters.CounterValue("sched.unpair_timeouts"), 1u);

  const auto& records = exec.Records();
  ASSERT_EQ(records.size(), 4u);
  // Job ids 2 and 3 form the hold-pair; job 4 is the timeout victim.
  EXPECT_FALSE(records[0].paired);
  EXPECT_TRUE(records[1].paired);
  EXPECT_TRUE(records[2].paired);
  EXPECT_EQ(records[1].start_tick, records[2].start_tick);
  EXPECT_FALSE(records[3].paired);
  EXPECT_TRUE(records[3].unpaired_by_timeout);
  // The timeout victim cannot start before its hold deadline expires.
  EXPECT_GE(records[3].start_tick, 30 + options.unpair_timeout);

  // All four virtual runs computed the real answer.
  const BigUInt expected = Exponentiator(n).ModExp(base, exponent);
  // (Submit order == record order: ids are assigned at SubmitAt.)
  for (const auto& record : records) {
    EXPECT_GT(record.finish_tick, record.start_tick);
    EXPECT_GE(record.start_tick, record.submit_tick);
  }
  DeterministicExecutor check(options);
  auto future = check.SubmitAt(0, n, base, exponent);
  check.RunUntilIdle();
  EXPECT_EQ(future.get().value, expected);
}

TEST(DeterministicExecutor, IdleWorkersStealFromLoadedDeques) {
  auto rng = test::TestRng();
  // Wildly uneven job sizes: the worker that lands the small jobs
  // drains its deque early and must steal the big ones' backlog.
  const BigUInt small = rng.OddExactBits(12);
  const BigUInt big = rng.OddExactBits(64);
  ExpService::Options options;
  options.workers = 4;
  DeterministicExecutor exec(options);
  std::vector<std::future<ExpService::Result>> futures;
  for (int j = 0; j < 24; ++j) {
    const BigUInt& n = (j % 4 == 0) ? small : big;
    futures.push_back(exec.SubmitAt(0, n, rng.Below(n), rng.Below(n)));
  }
  exec.RunUntilIdle();
  EXPECT_GT(exec.registry().Snapshot().CounterValue("sched.steals"), 0u);
  bool any_stolen_record = false;
  for (const auto& record : exec.Records()) {
    any_stolen_record = any_stolen_record || record.stolen;
  }
  EXPECT_TRUE(any_stolen_record);
  for (auto& future : futures) future.get();

  // The same burst with stealing disabled issues every group from its
  // own deque.
  ExpService::Options fixed = options;
  fixed.work_stealing = false;
  DeterministicExecutor pinned(fixed);
  for (int j = 0; j < 24; ++j) {
    const BigUInt& n = (j % 4 == 0) ? small : big;
    pinned.SubmitAt(0, n, rng.Below(n), rng.Below(n));
  }
  pinned.RunUntilIdle();
  EXPECT_EQ(pinned.registry().Snapshot().CounterValue("sched.steals"), 0u);
  // Stealing can only help the virtual makespan.
  EXPECT_LE(exec.Now(), pinned.Now());
}

TEST(DeterministicExecutor, ReplayFromSameTraceIsBitIdentical) {
  const auto run = [] {
    auto rng = test::TestRng();
    std::vector<BigUInt> moduli;
    for (const std::size_t bits : {24u, 24u, 48u}) {
      moduli.push_back(rng.OddExactBits(bits));
    }
    ExpService::Options options;
    options.workers = 3;
    options.unpair_timeout = 30'000;
    DeterministicExecutor exec(options);
    std::uint64_t tick = 0;
    for (int j = 0; j < 40; ++j) {
      const BigUInt& n = moduli[static_cast<std::size_t>(
          rng.Engine().NextBelow(moduli.size()))];
      exec.SubmitAt(tick, n, rng.Below(n), rng.Below(n));
      tick += rng.Engine().NextBelow(20'000);
    }
    exec.RunUntilIdle();
    return std::make_tuple(exec.Records(), exec.registry().Snapshot(),
                           exec.Now());
  };
  const auto [records_a, counters_a, makespan_a] = run();
  const auto [records_b, counters_b, makespan_b] = run();
  EXPECT_EQ(makespan_a, makespan_b);
  for (const char* name :
       {"issues.paired", "sched.steals", "sched.unpair_timeouts"}) {
    EXPECT_EQ(counters_a.CounterValue(name), counters_b.CounterValue(name))
        << name;
  }
  ASSERT_EQ(records_a.size(), records_b.size());
  for (std::size_t j = 0; j < records_a.size(); ++j) {
    EXPECT_EQ(records_a[j].id, records_b[j].id);
    EXPECT_EQ(records_a[j].start_tick, records_b[j].start_tick);
    EXPECT_EQ(records_a[j].finish_tick, records_b[j].finish_tick);
    EXPECT_EQ(records_a[j].worker, records_b[j].worker);
    EXPECT_EQ(records_a[j].paired, records_b[j].paired);
    EXPECT_EQ(records_a[j].stolen, records_b[j].stolen);
  }
}

// Deadline semantics in virtual time: a job whose deadline expires while
// it is *held for pairing* is released from the hold buffer and cancelled
// at the exact deadline tick — and the whole schedule, including the
// cancellation, replays bit-identically.
TEST(DeterministicExecutor, DeadlineCancelsHeldJobAtExactTick) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(48);
  const BigUInt base = rng.Below(n);
  const BigUInt exponent = rng.Below(n);
  const std::uint64_t solo_ticks = CalibrateSoloTicks(n, base, exponent);
  ASSERT_GT(solo_ticks, 8u);

  const auto run = [&] {
    ExpService::Options options;
    options.workers = 1;
    // Hold window far beyond the deadline: without cancellation the held
    // job would wait this long for a partner.
    options.unpair_timeout = solo_ticks * 4;
    DeterministicExecutor exec(options);
    // t=0 occupies the one worker; two fast same-key arrivals make the
    // key hot and pair with each other; the fourth arrival is then held
    // for a partner that never comes.
    exec.SubmitAt(0, n, base, exponent);
    exec.SubmitAt(10, n, base, exponent);
    exec.SubmitAt(20, n, base, exponent);
    const std::uint64_t deadline = 30 + solo_ticks / 2;
    ExpJobOptions doomed;
    doomed.deadline = deadline;
    bool callback_fired = false;
    bool callback_cancelled = false;
    auto future = exec.SubmitAt(30, n, base, exponent, doomed,
                                [&](const ExpService::Result& result) {
                                  callback_fired = true;
                                  callback_cancelled = result.cancelled;
                                });
    exec.RunUntilIdle();

    // The doomed job resolved as cancelled — typed result, not an
    // exception, and its callback still fired.
    auto result = future.get();
    EXPECT_TRUE(result.cancelled);
    EXPECT_TRUE(callback_fired);
    EXPECT_TRUE(callback_cancelled);
    EXPECT_EQ(result.stats.cancelled, 1u);

    const obs::MetricsSnapshot counters = exec.registry().Snapshot();
    EXPECT_EQ(counters.CounterValue("jobs.submitted"), 4u);
    EXPECT_EQ(counters.CounterValue("jobs.cancelled"), 1u);
    // Conservation: submitted == completed + cancelled.
    EXPECT_EQ(counters.CounterValue("jobs.submitted"),
              counters.CounterValue("jobs.completed") +
                  counters.CounterValue("jobs.cancelled"));
    EXPECT_EQ(counters.CounterValue("sched.cancelled"), 1u);

    const auto& records = exec.Records();
    EXPECT_EQ(records.size(), 4u);
    // Records land in completion order; find the doomed job by its id
    // (ids are assigned in SubmitAt order, so it is id 4).
    const auto doomed_record =
        std::find_if(records.begin(), records.end(),
                     [](const auto& record) { return record.id == 4; });
    EXPECT_NE(doomed_record, records.end());
    if (doomed_record != records.end()) {
      EXPECT_TRUE(doomed_record->cancelled);
      // Cancelled at the exact deadline tick, not at the next scheduler
      // poll and not at the unpair timeout.
      EXPECT_EQ(doomed_record->finish_tick, deadline);
    }
    return std::make_pair(exec.Records(), exec.Now());
  };

  const auto [records_a, makespan_a] = run();
  const auto [records_b, makespan_b] = run();
  EXPECT_EQ(makespan_a, makespan_b);
  ASSERT_EQ(records_a.size(), records_b.size());
  for (std::size_t j = 0; j < records_a.size(); ++j) {
    EXPECT_EQ(records_a[j].start_tick, records_b[j].start_tick);
    EXPECT_EQ(records_a[j].finish_tick, records_b[j].finish_tick);
    EXPECT_EQ(records_a[j].cancelled, records_b[j].cancelled);
    EXPECT_EQ(records_a[j].worker, records_b[j].worker);
  }
}

// A deadline that is already in the past at dispatch time cancels the job
// even when a worker is free the moment it arrives (claim-time gate).
TEST(DeterministicExecutor, ExpiredDeadlineCancelsBeforeDispatch) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(32);
  ExpService::Options options;
  options.workers = 2;
  DeterministicExecutor exec(options);
  ExpJobOptions expired;
  expired.deadline = 100;
  auto doomed = exec.SubmitAt(100, n, rng.Below(n), rng.Below(n), expired);
  auto live = exec.SubmitAt(100, n, rng.Below(n), rng.Below(n));
  exec.RunUntilIdle();
  EXPECT_TRUE(doomed.get().cancelled);
  EXPECT_FALSE(live.get().cancelled);
  const obs::MetricsSnapshot counters = exec.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("jobs.cancelled"), 1u);
  EXPECT_EQ(counters.CounterValue("jobs.submitted"),
            counters.CounterValue("jobs.completed") +
                counters.CounterValue("jobs.cancelled"));
}

// Threaded service: the same deadline contract (claim-time cancellation,
// typed result, callback fires, counters conserve) under real threads.
TEST(ExpService, DeadlineCancelledJobResolvesTypedAndConserves) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(64);
  ExpService::Options options;
  options.workers = 2;
  ExpService service(options);
  // A 1-tick (1 ns) deadline is always in the past by the time a worker
  // claims the job.
  ExpJobOptions doomed_options;
  doomed_options.deadline = 1;
  std::atomic<bool> callback_cancelled{false};
  auto doomed = service.Submit(n, rng.Below(n), rng.Below(n), doomed_options,
                               [&](const ExpService::Result& result) {
                                 callback_cancelled = result.cancelled;
                               });
  auto live = service.Submit(n, rng.Below(n), rng.Below(n));
  service.Wait();
  EXPECT_TRUE(doomed.get().cancelled);
  EXPECT_TRUE(callback_cancelled);
  EXPECT_FALSE(live.get().cancelled);
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  EXPECT_EQ(counters.CounterValue("jobs.submitted"), 2u);
  EXPECT_EQ(counters.CounterValue("jobs.cancelled"), 1u);
  EXPECT_EQ(counters.CounterValue("jobs.submitted"),
            counters.CounterValue("jobs.completed") +
                counters.CounterValue("jobs.cancelled"));
}

// The acceptance scenario in the small: on sparse same-key traffic that
// keeps the pool moderately loaded, the v1 shared queue almost never
// finds two jobs queued together (workers drain it too fast), while the
// v2 hold-for-pairing converts the same trace into dual-channel pairs.
// Array capacity per job — saturation throughput — must improve >= 1.2x.
TEST(DeterministicExecutor, StealingSchedulerBeatsSharedQueueOnSparseTraffic) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(64);
  const BigUInt base = rng.Below(n);
  const BigUInt exponent = rng.Below(n);
  const std::uint64_t solo_ticks = CalibrateSoloTicks(n, base, exponent);
  const std::uint64_t gap = (solo_ticks * 3) / 5;  // per-worker load ~0.83
  constexpr int kJobs = 60;

  const auto run = [&](SchedulerKind kind) {
    ExpService::Options options;
    options.workers = 2;
    options.scheduler = kind;
    options.unpair_timeout = solo_ticks;
    DeterministicExecutor exec(options);
    for (int j = 0; j < kJobs; ++j) {
      exec.SubmitAt(static_cast<std::uint64_t>(j) * gap, n, base, exponent);
    }
    exec.RunUntilIdle();
    return std::make_pair(exec.Records(), exec.registry().Snapshot());
  };
  const auto [records_v1, counters_v1] = run(SchedulerKind::kSharedQueue);
  const auto [records_v2, counters_v2] = run(SchedulerKind::kStealing);
  EXPECT_EQ(counters_v1.CounterValue("jobs.completed"), kJobs);
  EXPECT_EQ(counters_v2.CounterValue("jobs.completed"), kJobs);
  // Both schedules are pinned, record for record: a change to the
  // dispatch path must not move a single tick or worker.
  EXPECT_EQ(RecordsDigest(records_v1), 0x71175aa3894806b3ull);
  EXPECT_EQ(RecordsDigest(records_v2), 0xf440941d6811faf9ull);
  // v1 meets an idle worker at almost every arrival: mostly solo issue.
  // v2 pairs the bulk of the trace through held partners.
  EXPECT_GT(counters_v2.CounterValue("issues.paired"),
            2 * counters_v1.CounterValue("issues.paired"));
  const std::uint64_t busy_v1 = BusyCycles(records_v1);
  const std::uint64_t busy_v2 = BusyCycles(records_v2);
  ASSERT_GT(busy_v2, 0u);
  // Jobs per array-cycle: the dual-channel pairs must buy >= 1.2x.
  const double speedup =
      static_cast<double>(busy_v1) / static_cast<double>(busy_v2);
  EXPECT_GE(speedup, 1.2) << "busy_v1=" << busy_v1 << " busy_v2=" << busy_v2;
}

// ---------------------------------------------------------------------------
// Threaded service: bursty multi-tenant stress and shutdown drain
// ---------------------------------------------------------------------------

// Three tenants fire bursts of mixed-size, mixed-engine jobs while a
// fourth runs pipelined-CRT RsaSignBatch against the same pool.  Every
// result must match the scalar oracle and the counters must be truthful.
TEST(ExpService, BurstyMultiTenantStressMatchesOracles) {
  auto rng = test::TestRng();
  std::vector<BigUInt> moduli;
  for (const std::size_t bits : {128u, 128u, 256u, 256u, 512u}) {
    moduli.push_back(rng.OddExactBits(bits));
  }
  const crypto::RsaKeyPair rsa_key = crypto::GenerateRsaKey(128, rng);
  const std::array<const char*, 3> engines = {"", "bit-serial", "word-mont"};

  ExpService::Options options;
  options.workers = 4;
  options.engine_cache_capacity = 4;  // smaller than the modulus pool
  options.unpair_timeout = 100'000;   // 100us: plausible for these sizes
  ExpService service(options);

  constexpr std::size_t kTenants = 3;
  constexpr std::size_t kBursts = 5;
  constexpr std::size_t kBurstJobs = 8;
  struct TenantJob {
    std::size_t modulus_index = 0;
    std::size_t engine_index = 0;
    BigUInt base;
    BigUInt exponent;
  };
  std::vector<std::vector<TenantJob>> jobs(kTenants);
  std::vector<std::vector<std::future<ExpService::Result>>> futures(kTenants);
  std::vector<std::thread> tenants;
  for (std::size_t t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      RandomBigUInt tenant_rng(test::TestSeed(t + 101));
      for (std::size_t burst = 0; burst < kBursts; ++burst) {
        for (std::size_t j = 0; j < kBurstJobs; ++j) {
          TenantJob job;
          job.modulus_index = static_cast<std::size_t>(
              tenant_rng.Engine().NextBelow(moduli.size()));
          job.engine_index = static_cast<std::size_t>(
              tenant_rng.Engine().NextBelow(engines.size()));
          const BigUInt& n = moduli[job.modulus_index];
          job.base = tenant_rng.Below(n);
          job.exponent = tenant_rng.Below(n);
          ExpService::JobOptions job_options;
          job_options.engine_name = engines[job.engine_index];
          futures[t].push_back(service.Submit(n, job.base, job.exponent,
                                              std::move(job_options)));
          jobs[t].push_back(std::move(job));
        }
        // Idle gap between bursts: lets the pool drain so the next
        // burst exercises the idle->burst transition, not a steady
        // backlog.
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }
  // The RSA tenant interleaves two pipelined-CRT batches.
  std::vector<BigUInt> messages;
  for (int j = 0; j < 6; ++j) messages.push_back(rng.Below(rsa_key.n));
  std::vector<BigUInt> signatures_a, signatures_b;
  std::thread rsa_tenant([&] {
    signatures_a = crypto::RsaSignBatch(rsa_key, messages, service);
    signatures_b = crypto::RsaSignBatch(rsa_key, messages, service);
  });
  for (std::thread& tenant : tenants) tenant.join();
  rsa_tenant.join();
  service.Wait();

  std::vector<Exponentiator> oracles;
  oracles.reserve(moduli.size());
  for (const BigUInt& n : moduli) oracles.emplace_back(n);
  for (std::size_t t = 0; t < kTenants; ++t) {
    ASSERT_EQ(futures[t].size(), jobs[t].size());
    for (std::size_t j = 0; j < futures[t].size(); ++j) {
      const TenantJob& job = jobs[t][j];
      ASSERT_EQ(futures[t][j].get().value,
                oracles[job.modulus_index].ModExp(job.base, job.exponent))
          << "tenant " << t << " job " << j;
    }
  }
  // Pipelined CRT is bit-identical to the scalar private-key oracle.
  ASSERT_EQ(signatures_a.size(), messages.size());
  for (std::size_t j = 0; j < messages.size(); ++j) {
    EXPECT_EQ(signatures_a[j], crypto::RsaPrivate(rsa_key, messages[j]));
    EXPECT_EQ(signatures_b[j], signatures_a[j]);
  }

  // Counter truthfulness: conservation across issue modes and the hold
  // ledger balancing out once the pool is drained.
  const obs::MetricsSnapshot counters = service.registry().Snapshot();
  const std::uint64_t total =
      kTenants * kBursts * kBurstJobs + 2 * 2 * messages.size();
  EXPECT_EQ(counters.CounterValue("jobs.submitted"), total);
  EXPECT_EQ(counters.CounterValue("jobs.completed"), total);
  EXPECT_EQ(2 * counters.CounterValue("issues.paired") +
                counters.CounterValue("issues.single"),
            total);
  EXPECT_EQ(counters.CounterValue("sched.holds"),
            counters.CounterValue("sched.hold_pairs") +
                counters.CounterValue("sched.unpair_timeouts"));
  EXPECT_GT(counters.CounterValue("issues.paired"), 0u);
  EXPECT_GT(counters.CounterValue("engine.cache_hits"), 0u);
}

// Regression for the shutdown drain: destroying the service with jobs
// still queued — including bonded pairs and callback-posted
// continuations — must resolve every future and run every continuation
// before the destructor returns.  No callback may run after destruction.
void ShutdownDrainsBondedPairsAndContinuations(SchedulerKind scheduler) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(96);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::future<ExpService::Result>> futures;
    std::pair<std::future<ExpService::Result>, std::future<ExpService::Result>>
        bonded;
    auto callbacks = std::make_shared<std::atomic<int>>(0);
    auto continuations = std::make_shared<std::atomic<int>>(0);
    constexpr int kJobs = 12;
    {
      ExpService::Options options;
      options.workers = 2;
      options.scheduler = scheduler;
      ExpService service(options);
      for (int j = 0; j < kJobs; ++j) {
        futures.push_back(service.Submit(
            n, rng.Below(n), rng.Below(n),
            [&service, callbacks, continuations](const ExpService::Result&) {
              callbacks->fetch_add(1, std::memory_order_relaxed);
              service.Post([continuations] {
                continuations->fetch_add(1, std::memory_order_relaxed);
              });
            }));
      }
      bonded = service.SubmitPair(n, rng.Below(n), rng.Below(n), n,
                                  rng.Below(n), rng.Below(n));
      // Destructor runs here, racing the freshly queued work.
    }
    EXPECT_EQ(callbacks->load(), kJobs) << "round " << round;
    EXPECT_EQ(continuations->load(), kJobs) << "round " << round;
    for (auto& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      future.get();
    }
    ASSERT_EQ(bonded.first.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    ASSERT_EQ(bonded.second.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    bonded.first.get();
    bonded.second.get();
  }
}

TEST(ExpService, ShutdownDrainsInFlightBondedPairsAndContinuations) {
  ShutdownDrainsBondedPairsAndContinuations(SchedulerKind::kStealing);
}

TEST(ExpService,
     ShutdownDrainsInFlightBondedPairsAndContinuationsSharedQueue) {
  ShutdownDrainsBondedPairsAndContinuations(SchedulerKind::kSharedQueue);
}

}  // namespace
}  // namespace mont::core
