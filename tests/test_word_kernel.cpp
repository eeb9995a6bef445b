// Differential tests of WordMontgomery's 64-bit-limb CIOS kernel against
// BigUInt arithmetic: every 32-bit limb count from 1 to 128 (odd counts
// take the kernel's 32-bit last reduction digit, counts above 64 its
// runtime-width body), edge operands, moduli with the top bit set, and the
// fixed-window ModExp at the exponent lengths where its windows split.
#include <gtest/gtest.h>

#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/exp_schedule.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "testutil.hpp"

namespace mont::bignum {
namespace {

constexpr std::size_t kMaxLimbs = 128;

/// Odd moduli of exactly `limbs` 32-bit limbs: all ones, a random one with
/// the top bit set and a random one whose top limb is partly used.
std::vector<BigUInt> Moduli(std::size_t limbs, RandomBigUInt& rng) {
  return {BigUInt::PowerOfTwo(32 * limbs) - BigUInt{1},
          rng.OddExactBits(32 * limbs), rng.OddExactBits(32 * limbs - 13)};
}

/// 0, 1, N-1, R mod N, R^2 mod N and a random residue.
std::vector<BigUInt> EdgeOperands(const WordMontgomery& ctx,
                                  RandomBigUInt& rng) {
  const BigUInt& n = ctx.Modulus();
  return {BigUInt{0},     BigUInt{1},          n - BigUInt{1},
          ctx.OneMont(), ctx.RSquaredModN(), rng.Below(n)};
}

/// got is x*y*R^-1 mod N, checked as got < N and got*R == x*y (mod N),
/// with R = 2^r_bits.
::testing::AssertionResult IsMontProduct(const BigUInt& got, const BigUInt& x,
                                         const BigUInt& y, const BigUInt& n,
                                         std::size_t r_bits) {
  if (got < n && (got << r_bits) % n == (x * y) % n) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "Mont(0x" << x.ToHex() << ", 0x" << y.ToHex() << ") = 0x"
         << got.ToHex() << " for N = 0x" << n.ToHex();
}

TEST(WordKernel, MultiplyMatchesDefinitionAtEveryLimbCount) {
  auto rng = test::TestRng();
  for (std::size_t limbs = 1; limbs <= kMaxLimbs; ++limbs) {
    for (const BigUInt& n : Moduli(limbs, rng)) {
      const WordMontgomery ctx(n);
      ASSERT_EQ(ctx.LimbCount(), limbs);
      ASSERT_EQ(ctx.WordCount(), (limbs + 1) / 2);
      const BigUInt r = BigUInt::PowerOfTwo(32 * limbs);
      ASSERT_EQ(ctx.OneMont(), r % n);
      ASSERT_EQ(ctx.RSquaredModN(), (r * r) % n);
      const std::vector<BigUInt> operands = EdgeOperands(ctx, rng);
      for (const BigUInt& x : operands) {
        for (const BigUInt& y : operands) {
          ASSERT_TRUE(IsMontProduct(ctx.Multiply(x, y), x, y, n, 32 * limbs))
              << "limbs=" << limbs;
        }
      }
      EXPECT_EQ(ctx.FromMont(ctx.ToMont(operands.back())), operands.back());
    }
  }
}

// The word API squares in place: out may alias both operands.
TEST(WordKernel, WordApiSquaresInPlace) {
  auto rng = test::TestRng(1);
  for (const std::size_t limbs : {1u, 2u, 3u, 8u, 63u, 64u, 65u, 100u}) {
    const BigUInt n = rng.OddExactBits(32 * limbs);
    const WordMontgomery ctx(n);
    std::vector<WordMontgomery::Word> x(ctx.WordCount());
    std::vector<WordMontgomery::Word> scratch(ctx.ScratchWords());
    BigUInt want = rng.Below(n);
    WordMontgomery::ToWords(want, x);
    for (int step = 0; step < 8; ++step) {
      want = ctx.Multiply(want, want);
      ctx.MultiplyWords(x, x, x, scratch);
      ASSERT_EQ(WordMontgomery::FromWords(x), want)
          << "limbs=" << limbs << " step=" << step;
    }
  }
}

TEST(WordKernel, RejectsBadModulusAndOperands) {
  EXPECT_THROW(WordMontgomery(BigUInt{0}), std::invalid_argument);
  EXPECT_THROW(WordMontgomery(BigUInt{1}), std::invalid_argument);
  EXPECT_THROW(WordMontgomery(BigUInt::PowerOfTwo(64)), std::invalid_argument);
  const WordMontgomery ctx(BigUInt{239});
  EXPECT_THROW(ctx.Multiply(BigUInt{239}, BigUInt{1}), std::invalid_argument);
  EXPECT_THROW(ctx.Multiply(BigUInt{1}, BigUInt{240}), std::invalid_argument);
}

/// Exponents 0, 1, 2, 2^k - 1 for k = 5, 64 and long_bits, and
/// random ones of w*j - 1, w*j and w*j + 1 bits (w the window width).
std::vector<BigUInt> Exponents(std::size_t long_bits, RandomBigUInt& rng) {
  std::vector<BigUInt> out = {BigUInt{0}, BigUInt{1}, BigUInt{2}};
  for (const std::size_t k : {std::size_t{5}, std::size_t{64}, long_bits}) {
    out.push_back(BigUInt::PowerOfTwo(k) - BigUInt{1});
  }
  const std::size_t w = kDefaultWindowBits;
  for (const std::size_t j : {1u, 2u, 13u}) {
    for (const std::size_t bits : {w * j - 1, w * j, w * j + 1}) {
      out.push_back(rng.ExactBits(bits));
    }
  }
  return out;
}

TEST(WordKernel, ModExpMatchesBigUInt) {
  auto rng = test::TestRng(2);
  // Every fixed-width kernel up to 40 limbs, then the runtime-width body
  // around 64-bit word counts 32, 33 and 64; full-length exponents up to
  // 512 bits, shorter ones above, where the BigUInt reference gets slow.
  std::vector<std::size_t> limb_counts;
  for (std::size_t limbs = 1; limbs <= 40; ++limbs) limb_counts.push_back(limbs);
  for (const std::size_t limbs : {63u, 64u, 65u, 66u, 127u, 128u}) {
    limb_counts.push_back(limbs);
  }
  for (const std::size_t limbs : limb_counts) {
    const BigUInt n = rng.OddExactBits(32 * limbs);
    const WordMontgomery ctx(n);
    const std::size_t exponent_bits = limbs <= 16 ? n.BitLength() : 66;
    EXPECT_TRUE(ctx.ModExp(BigUInt{0}, BigUInt{7}).IsZero());
    for (const BigUInt& e : Exponents(exponent_bits, rng)) {
      for (const BigUInt& base : {rng.Below(n), n - BigUInt{1},
                                  n + BigUInt{5}}) {
        ASSERT_EQ(ctx.ModExp(base, e), BigUInt::ModExp(base, e, n))
            << "limbs=" << limbs << " e=" << e.ToHex();
      }
    }
  }
}

// The kernel's schedule executor runs every mode, not only the fixed
// window: the word-mont engine executes kAlg3 on it.
TEST(WordKernel, RunScheduleExecutesEveryMode) {
  auto rng = test::TestRng(3);
  for (const std::size_t bits : {17u, 64u, 160u, 512u}) {
    const BigUInt n = rng.OddExactBits(bits);
    const WordMontgomery ctx(n);
    const BigUInt base = rng.Below(n);
    const BigUInt e = rng.ExactBits(bits);
    const BigUInt want = BigUInt::ModExp(base, e, n);
    std::vector<ExpStep> steps;
    for (const ExpMode mode : {ExpMode::kAlg3, ExpMode::kRightToLeft,
                               ExpMode::kLadder, ExpMode::kFixedWindow}) {
      BuildExpSchedule(mode, e, &steps);
      EXPECT_EQ(ctx.RunSchedule(steps, base), want)
          << "bits=" << bits << " mode=" << static_cast<int>(mode);
    }
    for (std::size_t w = 1; w <= kMaxWindowBits; ++w) {
      BuildExpSchedule(ExpMode::kFixedWindow, e, &steps, w);
      EXPECT_EQ(ctx.RunSchedule(steps, base), want) << "bits=" << bits
                                                    << " w=" << w;
    }
  }
}

}  // namespace
}  // namespace mont::bignum
