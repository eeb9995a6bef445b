// Tests for the modular exponentiator (paper §4.5): functional equivalence
// with plain modular exponentiation, the Eq. 10 cycle bounds, and agreement
// between the cycle-accurate and fast engines.
#include <gtest/gtest.h>

#include "bignum/biguint.hpp"
#include "bignum/exp_schedule.hpp"
#include "bignum/random.hpp"
#include "core/exponentiator.hpp"
#include "core/schedule.hpp"
#include "testutil.hpp"

namespace mont::core {
namespace {

using bignum::BigUInt;
using bignum::RandomBigUInt;

TEST(Exponentiator, MatchesReferenceFastEngine) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {8u, 16u, 64u, 160u, 256u}) {
    const BigUInt n = rng.OddExactBits(bits);
    Exponentiator exp(n, "bit-serial");
    for (int trial = 0; trial < 4; ++trial) {
      const BigUInt base = rng.Below(n);
      const BigUInt e = rng.ExactBits(bits);
      EXPECT_EQ(exp.ModExp(base, e), BigUInt::ModExp(base, e, n))
          << "bits=" << bits;
    }
  }
}

TEST(Exponentiator, MatchesReferenceCycleAccurateEngine) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {8u, 16u, 32u}) {
    const BigUInt n = rng.OddExactBits(bits);
    Exponentiator exp(n, "mmmc");
    for (int trial = 0; trial < 2; ++trial) {
      const BigUInt base = rng.Below(n);
      const BigUInt e = rng.ExactBits(bits);
      EXPECT_EQ(exp.ModExp(base, e), BigUInt::ModExp(base, e, n))
          << "bits=" << bits;
    }
  }
}

TEST(Exponentiator, EnginesAgreeOnStatsAndValues) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(24);
  Exponentiator fast(n, "bit-serial");
  Exponentiator accurate(n, "mmmc");
  for (int trial = 0; trial < 3; ++trial) {
    const BigUInt base = rng.Below(n);
    const BigUInt e = rng.ExactBits(24);
    EngineStats fast_stats, accurate_stats;
    const BigUInt fast_result = fast.ModExp(base, e, &fast_stats);
    const BigUInt accurate_result = accurate.ModExp(base, e, &accurate_stats);
    EXPECT_EQ(fast_result, accurate_result);
    EXPECT_EQ(fast_stats.squarings, accurate_stats.squarings);
    EXPECT_EQ(fast_stats.multiplications, accurate_stats.multiplications);
    EXPECT_EQ(fast_stats.mmm_invocations, accurate_stats.mmm_invocations);
    // The fast engine charges 3l+4 per MMM; the cycle-accurate engine
    // measures it.  They must agree exactly.
    EXPECT_EQ(fast_stats.engine_cycles, accurate_stats.engine_cycles);
  }
}

TEST(Exponentiator, OperationCountsMatchExponentShape) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(32);
  Exponentiator exp(n);
  // All-ones exponent of t bits: t-1 squarings, t-1 multiplications.
  const BigUInt all_ones = BigUInt::PowerOfTwo(16) - BigUInt{1};
  EngineStats stats;
  exp.ModExp(BigUInt{3}, all_ones, &stats);
  EXPECT_EQ(stats.squarings, 15u);
  EXPECT_EQ(stats.multiplications, 15u);
  EXPECT_EQ(stats.mmm_invocations, 15u + 15u + 2u) << "plus domain entry/exit";

  // One-hot exponent 2^16: 16 squarings, 0 multiplications.
  stats = {};
  exp.ModExp(BigUInt{3}, BigUInt::PowerOfTwo(16), &stats);
  EXPECT_EQ(stats.squarings, 16u);
  EXPECT_EQ(stats.multiplications, 0u);
}

// Eq. 10: 3l^2+10l+12 <= T_mod-exp <= 6l^2+14l+12 for l-bit exponents,
// under the paper's cycle accounting.
class Eq10Bounds : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Eq10Bounds, PaperModelCyclesWithinBounds) {
  const std::size_t l = GetParam();
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(l);
  Exponentiator exp(n);
  for (int trial = 0; trial < 4; ++trial) {
    // Exponent with exactly l bits (top bit set), random lower bits.
    const BigUInt e = rng.ExactBits(l);
    EngineStats stats;
    exp.ModExp(rng.Below(n), e, &stats);
    EXPECT_LE(stats.paper_model_cycles, ExponentiationUpperBound(l));
    // The published lower bound assumes l squarings; the actual algorithm
    // performs l-1, so allow one MMM of slack below the closed form.
    EXPECT_GE(stats.paper_model_cycles + MultiplyCycles(l),
              ExponentiationLowerBound(l));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Eq10Bounds,
                         ::testing::Values(16, 32, 64, 128, 256));

// Fermat/Euler sanity through the full hardware-modelled flow.
// Every MMM of a bit-serial ModExp is charged the modelled 3l+4, and the
// MMMs are exactly the steps of the exponent's §4.5 schedule.
TEST(ExpAlgorithms, ModeledCyclesChargePerMmm) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(64);
  Exponentiator exp(n);
  std::vector<bignum::ExpStep> steps;
  for (const BigUInt& e : {BigUInt{0}, BigUInt{1}, BigUInt{6},
                           rng.BalancedExactBits(64), rng.ExactBits(96)}) {
    EngineStats stats;
    exp.ModExp(rng.Below(n), e, &stats);
    bignum::BuildExpSchedule(bignum::ExpMode::kAlg3, e, &steps);
    EXPECT_EQ(stats.mmm_invocations, steps.size());
    EXPECT_EQ(stats.engine_cycles, steps.size() * MultiplyCycles(64));
  }
}

TEST(Exponentiator, FermatLittleTheorem) {
  const BigUInt p{65537};  // prime
  Exponentiator exp(p);
  for (const std::uint64_t a : {2ull, 3ull, 12345ull}) {
    EXPECT_TRUE(exp.ModExp(BigUInt{a}, p - BigUInt{1}).IsOne());
  }
}

TEST(Exponentiator, EdgeExponents) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(20);
  Exponentiator exp(n);
  const BigUInt base = rng.Below(n);
  EXPECT_TRUE(exp.ModExp(base, BigUInt{0}).IsOne());
  EXPECT_EQ(exp.ModExp(base, BigUInt{1}), base);
  EXPECT_EQ(exp.ModExp(base, BigUInt{2}), (base * base) % n);
  EXPECT_TRUE(exp.ModExp(BigUInt{0}, BigUInt{5}).IsZero());
}

// RSA-style round trip: (m^e)^d = m for e*d = 1 mod phi.
TEST(Exponentiator, RsaRoundTripSmall) {
  // p = 61, q = 53 -> n = 3233, phi = 3120, e = 17, d = 2753.
  const BigUInt n{3233}, e{17}, d{2753};
  Exponentiator exp(n, "mmmc");
  for (const std::uint64_t m : {42ull, 123ull, 3000ull}) {
    const BigUInt c = exp.ModExp(BigUInt{m}, e);
    EXPECT_EQ(exp.ModExp(c, d).ToUint64(), m);
  }
}

}  // namespace
}  // namespace mont::core
