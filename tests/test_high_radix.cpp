// Tests for the radix-2^alpha Montgomery multiplier: functional agreement
// with the radix-2 reference across radices, Walter-bound closure, the
// cycle trade-off, and end-to-end exponentiation.
#include <gtest/gtest.h>

#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/high_radix.hpp"
#include "core/schedule.hpp"
#include "testutil.hpp"

namespace mont::core {
namespace {

using bignum::BigUInt;
using bignum::RandomBigUInt;

TEST(HighRadix, RejectsBadParameters) {
  EXPECT_THROW(HighRadixMultiplier(BigUInt{8}, 4), std::invalid_argument);
  EXPECT_THROW(HighRadixMultiplier(BigUInt{17}, 0), std::invalid_argument);
  EXPECT_THROW(HighRadixMultiplier(BigUInt{17}, 33), std::invalid_argument);
}

TEST(HighRadix, AlphaOneIsAlgorithmTwo) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(48);
  HighRadixMultiplier radix2(n, 1);
  bignum::BitSerialMontgomery reference(n);
  EXPECT_EQ(radix2.R(), reference.R());
  EXPECT_EQ(radix2.NPrime(), 1u) << "N' = 1 for alpha = 1 and odd N";
  const BigUInt two_n = n << 1;
  for (int trial = 0; trial < 10; ++trial) {
    const BigUInt x = rng.Below(two_n), y = rng.Below(two_n);
    EXPECT_EQ(radix2.Multiply(x, y), reference.MultiplyAlg2(x, y));
  }
}

class RadixSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RadixSweep, MatchesDefinitionAndStaysChainable) {
  const std::size_t alpha = GetParam();
  auto rng = test::TestRng();
  for (const std::size_t bits : {16u, 64u, 128u, 521u}) {
    const BigUInt n = rng.OddExactBits(bits);
    HighRadixMultiplier mul(n, alpha);
    const BigUInt r = mul.R();
    EXPECT_TRUE((n << 2) < r) << "Walter bound must hold";
    const BigUInt two_n = n << 1;
    BigUInt chained = rng.Below(two_n);
    for (int trial = 0; trial < 6; ++trial) {
      const BigUInt x = rng.Below(two_n), y = rng.Below(two_n);
      const BigUInt got = mul.Multiply(x, y);
      EXPECT_TRUE(test::IsChainableMontProduct(got, x, y, n, r))
          << "alpha=" << alpha << " bits=" << bits;
      chained = mul.Multiply(chained, got);  // outputs feed back
      ASSERT_LT(chained, two_n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radices, RadixSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 32));

TEST(HighRadix, NPrimeSatisfiesDefinition) {
  auto rng = test::TestRng();
  for (const std::size_t alpha : {4u, 8u, 16u}) {
    const BigUInt n = rng.OddExactBits(64);
    HighRadixMultiplier mul(n, alpha);
    const std::uint64_t mask = (1ull << alpha) - 1;
    const std::uint64_t n0 = n.ToUint64() & mask;
    EXPECT_EQ((n0 * mul.NPrime()) & mask, mask)
        << "N * N' = -1 mod 2^alpha";
  }
}

TEST(HighRadix, IterationCountShrinksWithRadix) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(1024);
  const HighRadixMultiplier r2(n, 1);
  const HighRadixMultiplier r16(n, 4);
  const HighRadixMultiplier r256(n, 8);
  EXPECT_EQ(r2.Iterations(), 1026u);
  EXPECT_EQ(r16.Iterations(), (1026u + 3) / 4);
  EXPECT_EQ(r256.Iterations(), (1026u + 7) / 8);
  EXPECT_LT(r256.MultiplyCycles(), r16.MultiplyCycles());
  EXPECT_LT(r16.MultiplyCycles(), r2.MultiplyCycles());
  // Radix-2 cycle model degenerates to the paper's 3l+4 (2s + w + 2 with
  // s = l+2, w = l+1 gives 3l+7; the MMMC's tighter capture saves the
  // difference — both are Theta(3l)).
  EXPECT_NEAR(static_cast<double>(r2.MultiplyCycles()),
              static_cast<double>(MultiplyCycles(1024)), 4.0);
}

TEST(HighRadix, ModExpMatchesReference) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(128);
  for (const std::size_t alpha : {4u, 8u, 16u}) {
    const auto engine = MakeEngine("high-radix", n, {.alpha = alpha});
    for (int trial = 0; trial < 3; ++trial) {
      const BigUInt base = rng.Below(n);
      const BigUInt e = rng.ExactBits(64);
      EXPECT_EQ(engine->ModExp(base, e), BigUInt::ModExp(base, e, n))
          << "alpha=" << alpha;
    }
  }
}

}  // namespace
}  // namespace mont::core
