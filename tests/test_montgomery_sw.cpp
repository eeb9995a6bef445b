// Tests for the software Montgomery references (the golden models that the
// cycle-accurate hardware simulations are validated against).
#include <gtest/gtest.h>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/prime.hpp"
#include "bignum/random.hpp"
#include "testutil.hpp"

namespace mont::bignum {
namespace {

// A small odd modulus for exhaustive checks.
constexpr std::uint64_t kSmallN = 239;

TEST(BitSerialMontgomery, RejectsBadModulus) {
  EXPECT_THROW(BitSerialMontgomery(BigUInt{4}), std::invalid_argument);
  EXPECT_THROW(BitSerialMontgomery(BigUInt{1}), std::invalid_argument);
  EXPECT_THROW(BitSerialMontgomery(BigUInt{0}), std::invalid_argument);
}

TEST(BitSerialMontgomery, ParametersMatchPaper) {
  const BigUInt n = BigUInt::FromDec("1000003");  // 20-bit prime
  BitSerialMontgomery ctx(n);
  EXPECT_EQ(ctx.l(), 20u);
  EXPECT_EQ(ctx.R(), BigUInt::PowerOfTwo(22));
  // Walter's bound: 4N < R.
  EXPECT_LT(n << 2, ctx.R());
}

// Exhaustive check of Algorithm 1 against the definition x*y*R1^-1 mod N.
TEST(BitSerialMontgomery, Alg1MatchesDefinitionExhaustive) {
  const BigUInt n{kSmallN};
  BitSerialMontgomery ctx(n);
  for (std::uint64_t x = 0; x < kSmallN; x += 7) {
    for (std::uint64_t y = 0; y < kSmallN; y += 5) {
      EXPECT_EQ(ctx.MultiplyAlg1(BigUInt{x}, BigUInt{y}),
                test::MontOracle(BigUInt{x}, BigUInt{y}, n, ctx.l()))
          << "x=" << x << " y=" << y;
    }
  }
}

// Exhaustive check of Algorithm 2: result congruent to x*y*R^-1 mod N and
// bounded by 2N (paper's key claim enabling subtraction-free chaining).
TEST(BitSerialMontgomery, Alg2CongruenceAndBoundExhaustive) {
  const BigUInt n{kSmallN};
  BitSerialMontgomery ctx(n);
  for (std::uint64_t x = 0; x < 2 * kSmallN; x += 11) {
    for (std::uint64_t y = 0; y < 2 * kSmallN; y += 13) {
      EXPECT_TRUE(test::IsChainableMontProduct(
          ctx.MultiplyAlg2(BigUInt{x}, BigUInt{y}), BigUInt{x}, BigUInt{y}, n,
          ctx.R()));
    }
  }
}

TEST(BitSerialMontgomery, Alg2RejectsOutOfRange) {
  const BigUInt n{kSmallN};
  BitSerialMontgomery ctx(n);
  EXPECT_THROW(ctx.MultiplyAlg2(BigUInt{2 * kSmallN}, BigUInt{1}),
               std::invalid_argument);
  EXPECT_THROW(ctx.MultiplyAlg2(BigUInt{1}, BigUInt{2 * kSmallN}),
               std::invalid_argument);
}

// Property: Algorithm 2 keeps outputs < 2N across random operand sizes, so
// results can always be fed back as inputs (the paper's chaining property).
TEST(BitSerialMontgomeryProperty, Alg2OutputsChainable) {
  auto rng = test::TestRng();
  for (const std::size_t bits : test::kSoftwareBitLengths) {
    const BigUInt n = rng.OddExactBits(bits);
    BitSerialMontgomery ctx(n);
    const BigUInt two_n = n << 1;
    BigUInt a = rng.Below(two_n);
    BigUInt b = rng.Below(two_n);
    for (int step = 0; step < 16; ++step) {
      a = ctx.MultiplyAlg2(a, b);  // feed the output straight back in
      ASSERT_LT(a, two_n) << "bits=" << bits << " step=" << step;
    }
  }
}

// Property: ToMont/FromMont round-trips and matches x*R mod N semantics.
TEST(BitSerialMontgomeryProperty, DomainRoundTrip) {
  auto rng = test::TestRng();
  for (int trial = 0; trial < 30; ++trial) {
    const BigUInt n = rng.OddExactBits(96);
    BitSerialMontgomery ctx(n);
    const BigUInt x = rng.Below(n);
    const BigUInt x_mont = ctx.ToMont(x);
    EXPECT_EQ(x_mont % n, (x * ctx.R()) % n);
    EXPECT_EQ(ctx.FromMont(x_mont), x);
  }
}

// Property: the §4.5 schedule over Algorithm 2 agrees with the plain
// BigUInt::ModExp.
TEST(BitSerialMontgomeryProperty, ModExpMatchesReference) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {8u, 32u, 128u}) {
    const BigUInt n = rng.OddExactBits(bits);
    BitSerialMontgomery ctx(n);
    for (int trial = 0; trial < 8; ++trial) {
      const BigUInt base = rng.Below(n);
      const BigUInt exp = rng.ExactBits(bits);
      EXPECT_EQ(test::Alg2ModExp(ctx, base, exp, ExpMode::kAlg3),
                BigUInt::ModExp(base, exp, n))
          << "bits=" << bits;
    }
  }
}

TEST(BitSerialMontgomery, ModExpEdgeCases) {
  const BigUInt n{kSmallN};
  BitSerialMontgomery ctx(n);
  const auto power = [&ctx](std::uint64_t base, std::uint64_t exponent) {
    return test::Alg2ModExp(ctx, BigUInt{base}, BigUInt{exponent},
                            ExpMode::kAlg3)
        .ToUint64();
  };
  EXPECT_EQ(power(5, 0), 1u);
  EXPECT_EQ(power(5, 1), 5u);
  EXPECT_EQ(power(0, 5), 0u);
  // Fermat's little theorem on the prime 239.
  EXPECT_EQ(power(2, kSmallN - 1), 1u);
}

// The word-level kernel must agree with the mathematical definition.  The
// suite keeps its parameter and instantiation so its test ids stay put:
// CIOS is the one kernel left in src/ (SOS and FIPS are bench_software's
// Koç-style comparison, checked against it there).
enum class WordKernel { kCios = 0 };

class WordMontgomeryVariants : public ::testing::TestWithParam<WordKernel> {};

TEST_P(WordMontgomeryVariants, MatchesDefinitionRandom) {
  auto rng = test::TestRng();
  for (const std::size_t bits : test::kSoftwareBitLengths) {
    const BigUInt n = rng.OddExactBits(bits);
    WordMontgomery ctx(n);
    const BigUInt r = BigUInt::PowerOfTwo(32 * ctx.LimbCount());
    for (int trial = 0; trial < 10; ++trial) {
      const BigUInt x = rng.Below(n);
      const BigUInt y = rng.Below(n);
      EXPECT_TRUE(test::IsReducedMontProduct(ctx.Multiply(x, y), x, y, n, r))
          << "bits=" << bits;
    }
  }
}

TEST_P(WordMontgomeryVariants, ModExpMatchesReference) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(256);
  WordMontgomery ctx(n);
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt base = rng.Below(n);
    const BigUInt exp = rng.ExactBits(64);
    EXPECT_EQ(ctx.ModExp(base, exp), BigUInt::ModExp(base, exp, n));
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, WordMontgomeryVariants,
                         ::testing::Values(WordKernel::kCios),
                         [](const auto&) { return "CIOS"; });

TEST(WordMontgomery, BitSerialAndWordLevelAgreeOnModExp) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(160);
  BitSerialMontgomery bit_ctx(n);
  WordMontgomery word_ctx(n);
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt base = rng.Below(n);
    const BigUInt exp = rng.ExactBits(48);
    EXPECT_EQ(test::Alg2ModExp(bit_ctx, base, exp, ExpMode::kAlg3),
              word_ctx.ModExp(base, exp));
  }
}

TEST(Primality, SmallKnownValues) {
  auto rng = test::TestRng();
  EXPECT_FALSE(IsProbablePrime(BigUInt{0}, rng));
  EXPECT_FALSE(IsProbablePrime(BigUInt{1}, rng));
  EXPECT_TRUE(IsProbablePrime(BigUInt{2}, rng));
  EXPECT_TRUE(IsProbablePrime(BigUInt{3}, rng));
  EXPECT_FALSE(IsProbablePrime(BigUInt{4}, rng));
  EXPECT_TRUE(IsProbablePrime(BigUInt{997}, rng));
  EXPECT_FALSE(IsProbablePrime(BigUInt{1001}, rng));  // 7 * 11 * 13
  EXPECT_TRUE(IsProbablePrime(BigUInt{1000003}, rng));
  EXPECT_FALSE(IsProbablePrime(BigUInt{1000001}, rng));  // 101 * 9901
}

TEST(Primality, CarmichaelNumbersRejected) {
  auto rng = test::TestRng();
  // Carmichael numbers fool Fermat tests but not Miller-Rabin.
  for (const std::uint64_t c : {561ull, 1105ull, 1729ull, 41041ull, 825265ull}) {
    EXPECT_FALSE(IsProbablePrime(BigUInt{c}, rng)) << c;
  }
}

TEST(Primality, KnownLargePrime) {
  auto rng = test::TestRng();
  // 2^127 - 1 is a Mersenne prime; 2^128 - 1 is composite.
  const BigUInt m127 = BigUInt::PowerOfTwo(127) - BigUInt{1};
  const BigUInt m128 = BigUInt::PowerOfTwo(128) - BigUInt{1};
  EXPECT_TRUE(IsProbablePrime(m127, rng));
  EXPECT_FALSE(IsProbablePrime(m128, rng));
}

TEST(Primality, GeneratePrimeHasRequestedShape) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {32u, 64u, 128u}) {
    const BigUInt p = GeneratePrime(bits, rng, 16);
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(p.Bit(bits - 2)) << "second-highest bit must be forced";
    EXPECT_TRUE(p.IsOdd());
    EXPECT_TRUE(IsProbablePrime(p, rng, 16));
  }
}

}  // namespace
}  // namespace mont::bignum
