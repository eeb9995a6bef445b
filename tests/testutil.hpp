// testutil.hpp — the shared test harness: per-test seeded RNG, the
// reference Montgomery oracle (x * y * R^-1 mod N), and operand-sweep
// helpers.  Every suite builds on these instead of re-rolling its own
// fixture; gate-level drive helpers live in testutil_netlist.hpp so that
// bignum-layer suites do not pull in the rtl/core headers.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/exp_schedule.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"

namespace mont::test {

// ---------------------------------------------------------------------------
// Seeded-RNG fixtures
// ---------------------------------------------------------------------------

/// Deterministic seed derived (FNV-1a) from the running test's full name —
/// every test gets its own reproducible stream without hand-picked magic
/// constants, and parameterized instantiations (whose names embed the
/// parameter) get distinct streams per parameter.
inline std::uint64_t TestSeed(std::uint64_t salt = 0) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const char* s) {
    for (; s != nullptr && *s != '\0'; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 0x100000001b3ull;
    }
  };
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    mix(info->test_suite_name());
    mix(".");
    mix(info->name());
  }
  return h ^ salt;
}

/// FNV-1a-64 of a byte string — the digest the replay pins compare
/// against (stable across hosts, no crypto dependency).
inline std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A bignum RNG seeded from the current test's name.  `salt` distinguishes
/// multiple independent streams inside one test (e.g. per bit length).
inline bignum::RandomBigUInt TestRng(std::uint64_t salt = 0) {
  return bignum::RandomBigUInt(TestSeed(salt));
}

// ---------------------------------------------------------------------------
// Reference Montgomery oracle
// ---------------------------------------------------------------------------

/// The mathematical definition every multiplier in the repo is validated
/// against: (x * y * R^-1) mod N, for odd N and gcd(R, N) = 1.
inline bignum::BigUInt MontOracle(const bignum::BigUInt& x,
                                  const bignum::BigUInt& y,
                                  const bignum::BigUInt& n,
                                  const bignum::BigUInt& r) {
  using bignum::BigUInt;
  return (x * y * BigUInt::ModInverse(r % n, n)) % n;
}

/// Oracle with R = 2^r_exponent (the common case: the paper's R = 2^(l+2)).
inline bignum::BigUInt MontOracle(const bignum::BigUInt& x,
                                  const bignum::BigUInt& y,
                                  const bignum::BigUInt& n,
                                  std::size_t r_exponent) {
  return MontOracle(x, y, n, bignum::BigUInt::PowerOfTwo(r_exponent));
}

/// Checks a chainable (Algorithm 2 style) Montgomery product: congruent to
/// the oracle mod N and bounded below 2N so outputs can feed back in.
inline ::testing::AssertionResult IsChainableMontProduct(
    const bignum::BigUInt& got, const bignum::BigUInt& x,
    const bignum::BigUInt& y, const bignum::BigUInt& n,
    const bignum::BigUInt& r) {
  if (got >= (n << 1)) {
    return ::testing::AssertionFailure()
           << "result 0x" << got.ToHex() << " >= 2N (N = 0x" << n.ToHex()
           << ")";
  }
  const bignum::BigUInt expect = MontOracle(x, y, n, r);
  if (got % n != expect) {
    return ::testing::AssertionFailure()
           << "result 0x" << got.ToHex() << " != x*y*R^-1 mod N = 0x"
           << expect.ToHex() << " for x = 0x" << x.ToHex() << ", y = 0x"
           << y.ToHex() << ", N = 0x" << n.ToHex();
  }
  return ::testing::AssertionSuccess();
}

/// Checks a fully reduced Montgomery product (word-level variants).
inline ::testing::AssertionResult IsReducedMontProduct(
    const bignum::BigUInt& got, const bignum::BigUInt& x,
    const bignum::BigUInt& y, const bignum::BigUInt& n,
    const bignum::BigUInt& r) {
  if (got >= n) {
    return ::testing::AssertionFailure()
           << "result 0x" << got.ToHex() << " not reduced below N = 0x"
           << n.ToHex();
  }
  const bignum::BigUInt expect = MontOracle(x, y, n, r);
  if (got != expect) {
    return ::testing::AssertionFailure()
           << "result 0x" << got.ToHex() << " != x*y*R^-1 mod N = 0x"
           << expect.ToHex() << " for x = 0x" << x.ToHex() << ", y = 0x"
           << y.ToHex() << ", N = 0x" << n.ToHex();
  }
  return ::testing::AssertionSuccess();
}

/// base^exponent mod N: the `mode` schedule executed over Algorithm 2
/// (BitSerialMontgomery::MultiplyAlg2), reduced below N at the end.
inline bignum::BigUInt Alg2ModExp(const bignum::BitSerialMontgomery& ctx,
                                  const bignum::BigUInt& base,
                                  const bignum::BigUInt& exponent,
                                  bignum::ExpMode mode) {
  using bignum::BigUInt;
  std::vector<bignum::ExpStep> steps;
  bignum::BuildExpSchedule(mode, exponent, &steps);
  bignum::ExpExecutor<BigUInt> run(steps, base % ctx.Modulus(),
                                   ctx.RSquaredModN(), BigUInt{1});
  run.Run([&ctx](const BigUInt& x, const BigUInt& y) {
    return ctx.MultiplyAlg2(x, y);
  });
  BigUInt out = run.Result();
  if (out >= ctx.Modulus()) out -= ctx.Modulus();
  return out;
}

// ---------------------------------------------------------------------------
// Operand sweeps
// ---------------------------------------------------------------------------

/// Gate-level-affordable operand lengths for netlist simulations.
inline constexpr std::size_t kGateLevelBitLengths[] = {2,  3,  4,  5,  8,
                                                       12, 16, 24, 32, 48};

/// Software-model operand lengths, chosen to straddle limb boundaries.
inline constexpr std::size_t kSoftwareBitLengths[] = {8,   16,  31,  32,  33,
                                                      64,  128, 160, 256, 512};

/// Calls fn(x, y) for every pair of boundary operands {0, 1, bound-1} and
/// then for `trials` uniform pairs below `bound`.  The boundary pairs hit
/// the all-zero datapath, the multiplicative identity, and the saturated
/// top-of-range cases every multiplier must survive.
template <typename Fn>
void ForEachOperandPair(bignum::RandomBigUInt& rng,
                        const bignum::BigUInt& bound, int trials, Fn&& fn) {
  using bignum::BigUInt;
  const BigUInt one{1};
  std::vector<BigUInt> edges;
  edges.push_back(BigUInt{});
  if (bound > one) edges.push_back(one);
  if (!bound.IsZero()) edges.push_back(bound - one);
  for (const BigUInt& x : edges) {
    for (const BigUInt& y : edges) {
      fn(x, y);
    }
  }
  for (int trial = 0; trial < trials; ++trial) {
    fn(rng.Below(bound), rng.Below(bound));
  }
}

}  // namespace mont::test
