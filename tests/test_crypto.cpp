// Tests for the application layer: RSA key generation / round trips / CRT,
// and ECC point multiplication (the paper's future-work direction) with
// exhaustive checks on a tiny curve plus known-structure checks on P-192.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "bignum/prime.hpp"
#include "bignum/random.hpp"
#include "crypto/ecc.hpp"
#include "crypto/rsa.hpp"
#include "server/signing_service.hpp"
#include "testutil.hpp"

namespace mont::crypto {
namespace {

using bignum::BigUInt;
using bignum::RandomBigUInt;

// ---------------------------------------------------------------------------
// RSA
// ---------------------------------------------------------------------------

TEST(Rsa, GeneratedKeyShape) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(128, rng);
  EXPECT_EQ(key.n.BitLength(), 128u);
  EXPECT_EQ(key.p * key.q, key.n);
  EXPECT_TRUE(IsProbablePrime(key.p, rng, 8));
  EXPECT_TRUE(IsProbablePrime(key.q, rng, 8));
  // e*d = 1 mod lambda(n)
  const BigUInt p1 = key.p - BigUInt{1};
  const BigUInt q1 = key.q - BigUInt{1};
  const BigUInt lambda = (p1 * q1) / BigUInt::Gcd(p1, q1);
  EXPECT_TRUE(((key.e * key.d) % lambda).IsOne());
}

TEST(Rsa, RejectsBadParameters) {
  auto rng = test::TestRng();
  EXPECT_THROW(GenerateRsaKey(31, rng), std::invalid_argument);
  EXPECT_THROW(GenerateRsaKey(16, rng), std::invalid_argument);
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(128, rng);
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt m = rng.Below(key.n);
    const BigUInt c = RsaPublic(key, m);
    EXPECT_EQ(RsaPrivate(key, c), m);
  }
}

TEST(Rsa, CrtMatchesPlainDecryption) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(192, rng);
  for (int trial = 0; trial < 5; ++trial) {
    const BigUInt m = rng.Below(key.n);
    const BigUInt c = RsaPublic(key, m);
    EXPECT_EQ(RsaPrivateCrt(key, c), RsaPrivate(key, c));
  }
}

TEST(Rsa, HardwareModelAgreesAndReportsCycles) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(96, rng);
  const BigUInt m = rng.Below(key.n);
  const BigUInt c = RsaPublic(key, m);
  core::EngineStats stats;
  EXPECT_EQ(RsaPrivate(key, c, "bit-serial", &stats), m);
  EXPECT_GT(stats.engine_cycles, 0u);
  EXPECT_EQ(stats.mmm_invocations,
            stats.squarings + stats.multiplications + 2);
}

// Every RSA-CRT entry point as one callable, so the conformance sweeps
// below hold each of them to the same key checks, range checks and
// fault gate.  RsaSignBatch signs on the caller's `service`, so a sweep
// also shows that one service outlives a failed batch.
struct CrtPath {
  const char* name;
  std::function<BigUInt(const RsaKeyPair&, const BigUInt&)> sign;
};

std::vector<CrtPath> CrtPaths(core::ExpService& service) {
  return {
      {"RsaPrivateCrt/word-mont",
       [](const RsaKeyPair& key, const BigUInt& c) {
         return RsaPrivateCrt(key, c, "word-mont");
       }},
      {"RsaPrivateCrt/bit-serial",
       [](const RsaKeyPair& key, const BigUInt& c) {
         return RsaPrivateCrt(key, c, "bit-serial");
       }},
      {"RsaPrivateCrtBlinded",
       [](const RsaKeyPair& key, const BigUInt& c) {
         bignum::RandomBigUInt blind_rng(test::TestSeed(5));
         return RsaPrivateCrtBlinded(key, c, blind_rng,
                                     RsaBlindingOptions{true, 16});
       }},
      {"RsaSignBatch",
       [&service](const RsaKeyPair& key, const BigUInt& c) {
         const std::vector<BigUInt> messages{c};
         return RsaSignBatch(key, messages, service).at(0);
       }},
  };
}

// A small threaded service for the RsaSignBatch path of the sweeps.
core::ExpService::Options SweepServiceOptions() {
  core::ExpService::Options options;
  options.workers = 2;
  return options;
}

TEST(Rsa, MessageOutOfRangeThrows) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  EXPECT_THROW(RsaPublic(key, key.n), std::invalid_argument);
  EXPECT_THROW(RsaPrivate(key, key.n + BigUInt{1}), std::invalid_argument);
  core::EngineStats stats;
  EXPECT_THROW(RsaPrivate(key, key.n, "bit-serial", &stats),
               std::invalid_argument);
  core::ExpService service(SweepServiceOptions());
  for (const CrtPath& path : CrtPaths(service)) {
    EXPECT_THROW(path.sign(key, key.n), std::invalid_argument) << path.name;
  }
}

// Bellcore/Lenstra fault hygiene: a faulty CRT half-exponentiation yields
// a well-formed wrong signature whose gcd(sig^e - c, n) factors n.  Every
// CRT path verifies sig^e mod n against the input and must throw rather
// than release the broken result — and then still sign with the healthy
// key (for RsaSignBatch: on the same service whose continuation threw).
// Fault injection: a corrupted private exponent makes both halves compute
// a wrong (but well-formed) power — the same observable as a computation
// fault.
TEST(Rsa, CrtFaultIsDetectedBeforeRelease) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  BigUInt m = rng.Below(key.n);
  if (m <= BigUInt{1}) m = BigUInt{2};
  const BigUInt c = RsaPublic(key, m);
  RsaKeyPair faulted = key;
  faulted.d = key.d + BigUInt{2};
  core::ExpService service(SweepServiceOptions());
  for (const CrtPath& path : CrtPaths(service)) {
    EXPECT_THROW(path.sign(faulted, c), std::runtime_error) << path.name;
    EXPECT_EQ(path.sign(key, c), m) << path.name;  // healthy key releases
  }
}

// A backend without pairable streams still computes CRT — sequentially —
// and a mis-fielded service is a configuration error, not a fault.
TEST(Rsa, CrtPairedFallsBackForUnpairableBackends) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  const BigUInt m = rng.Below(key.n);
  const BigUInt c = RsaPublic(key, m);
  core::EngineStats stats;
  EXPECT_EQ(RsaPrivateCrt(key, c, "word-mont", &stats), m);
  EXPECT_EQ(stats.paired_issues, 0u);  // word-serial: sequential issue
  EXPECT_GT(stats.single_issues, 0u);

  core::ExpService::Options gf2;
  gf2.engine_options.field = core::EngineField::kGf2;
  core::ExpService gf2_service(gf2);
  const std::vector<BigUInt> messages{c};
  EXPECT_THROW(RsaSignBatch(key, messages, gf2_service),
               std::invalid_argument);
}

// A hand-assembled CRT key with p == q (or p*q != n) would recombine to a
// well-formed wrong answer; every CRT path must reject it loudly instead,
// and the signing service must refuse to serve it.
TEST(Rsa, MalformedCrtKeysAreRejected) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  ASSERT_NE(key.p, key.q);  // GenerateRsaKey must never emit p == q

  RsaKeyPair equal_primes = key;
  equal_primes.q = equal_primes.p;
  equal_primes.n = equal_primes.p * equal_primes.p;
  RsaKeyPair mismatched = key;
  mismatched.n += BigUInt{2};  // p*q != n
  const BigUInt c = rng.Below(key.p);
  core::ExpService sweep_service(SweepServiceOptions());
  for (const RsaKeyPair& bad : {equal_primes, mismatched}) {
    for (const CrtPath& path : CrtPaths(sweep_service)) {
      EXPECT_THROW(path.sign(bad, c), std::invalid_argument) << path.name;
    }
    server::Keystore keystore;
    keystore.AddTenant(1, {});
    keystore.AddKey(1, 7, bad);
    // A 64-bit modulus is also too small for PKCS#1, so the message pins
    // which check refused the key.
    try {
      server::SigningService service(std::move(keystore));
      ADD_FAILURE() << "SigningService accepted a malformed CRT key";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("malformed CRT key"),
                std::string::npos)
          << error.what();
    }
  }
}

// ---------------------------------------------------------------------------
// RSA blinding (the sca lab's countermeasure; closure is asserted at gate
// level in test_sca_attack.cpp — here: functional equivalence)
// ---------------------------------------------------------------------------

// Acceptance: blinded outputs bit-identical to unblinded on a randomized
// sweep, for every option combination and both private-key paths.
TEST(RsaBlinding, BlindedMatchesUnblindedOnRandomSweep) {
  auto rng = test::TestRng();
  bignum::RandomBigUInt blind_rng(test::TestSeed(1));
  for (const std::size_t bits : {64u, 96u}) {
    const RsaKeyPair key = GenerateRsaKey(bits, rng);
    for (int trial = 0; trial < 6; ++trial) {
      const BigUInt c = rng.Below(key.n);
      const BigUInt expected = RsaPrivate(key, c);
      for (const bool blind_base : {true, false}) {
        for (const std::size_t blind_bits : {std::size_t{0}, std::size_t{16}}) {
          const RsaBlindingOptions options{blind_base, blind_bits};
          EXPECT_EQ(RsaPrivateBlinded(key, c, blind_rng, options), expected)
              << "bits=" << bits << " base=" << blind_base
              << " exp_bits=" << blind_bits;
          EXPECT_EQ(RsaPrivateCrtBlinded(key, c, blind_rng, options), expected)
              << "bits=" << bits << " base=" << blind_base
              << " exp_bits=" << blind_bits;
        }
      }
    }
  }
}

// Base blinding must actually randomize what the device exponentiates:
// two blinded runs of the same input consume different blinding units
// (observable here only through the rng stream advancing), yet agree.
TEST(RsaBlinding, FreshRandomnessPerCallSameResult) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  const BigUInt c = rng.Below(key.n);
  bignum::RandomBigUInt blind_rng(test::TestSeed(2));
  const BigUInt first = RsaPrivateBlinded(key, c, blind_rng);
  const BigUInt second = RsaPrivateBlinded(key, c, blind_rng);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, RsaPrivate(key, c));
}

TEST(RsaBlinding, RejectsBadInputsAndKeys) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  bignum::RandomBigUInt blind_rng(test::TestSeed(3));
  EXPECT_THROW(RsaPrivateBlinded(key, key.n, blind_rng),
               std::invalid_argument);
  EXPECT_THROW(RsaPrivateCrtBlinded(key, key.n, blind_rng),
               std::invalid_argument);
  // Exponent blinding needs the real factorization for the group order.
  RsaKeyPair mismatched = key;
  mismatched.n += BigUInt{2};
  const BigUInt c = rng.Below(key.n);
  EXPECT_THROW(RsaPrivateBlinded(mismatched, c % mismatched.n, blind_rng,
                                 RsaBlindingOptions{true, 16}),
               std::invalid_argument);
  EXPECT_THROW(RsaPrivateCrtBlinded(mismatched, c % mismatched.n, blind_rng),
               std::invalid_argument);
}

// The CRT-blinded path keeps the Bellcore/Lenstra fault check: corrupt
// the private exponent and the fault must be detected, not released.
TEST(RsaBlinding, CrtBlindedStillDetectsFaults) {
  auto rng = test::TestRng();
  const RsaKeyPair key = GenerateRsaKey(64, rng);
  bignum::RandomBigUInt blind_rng(test::TestSeed(4));
  RsaKeyPair faulty = key;
  faulty.d += RsaLambda(key);  // same signatures...
  faulty.d += BigUInt{1};   // ...then corrupted
  const BigUInt c = rng.Below(key.n);
  EXPECT_THROW(RsaPrivateCrtBlinded(faulty, c, blind_rng),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// ECC
// ---------------------------------------------------------------------------

TEST(Ecc, TinyCurveGeneratorOnCurve) {
  const Curve curve(CurveParams::Tiny97());
  EXPECT_TRUE(curve.IsOnCurve(curve.Generator()));
  EXPECT_TRUE(curve.IsOnCurve(AffinePoint::Infinity()));
  EXPECT_FALSE(curve.IsOnCurve(AffinePoint{BigUInt{1}, BigUInt{1}, false}));
}

// Exhaustive group-law check on the tiny curve: the affine reference and
// the Montgomery-domain Jacobian path must agree for every scalar.
TEST(Ecc, TinyCurveScalarMulMatchesRepeatedAddition) {
  const Curve curve(CurveParams::Tiny97());
  const AffinePoint g = curve.Generator();
  AffinePoint acc = AffinePoint::Infinity();
  for (std::uint64_t k = 0; k <= 120; ++k) {
    const AffinePoint via_jacobian = curve.ScalarMul(BigUInt{k}, g);
    EXPECT_EQ(via_jacobian, acc) << "k=" << k;
    EXPECT_TRUE(curve.IsOnCurve(acc));
    acc = curve.Add(acc, g);
  }
}

TEST(Ecc, TinyCurveGroupOrder) {
  // Find the order of G by repeated addition; ScalarMul(order) must be the
  // identity and the order must divide any k*G period.
  const Curve curve(CurveParams::Tiny97());
  const AffinePoint g = curve.Generator();
  AffinePoint acc = g;
  std::uint64_t order = 1;
  while (!acc.infinity) {
    acc = curve.Add(acc, g);
    ++order;
    ASSERT_LE(order, 200u);
  }
  // Hasse bound: |order - (p+1)| <= 2*sqrt(p) (order divides group order).
  EXPECT_GT(order, 1u);
  EXPECT_TRUE(curve.ScalarMul(BigUInt{order}, g).infinity);
  EXPECT_EQ(curve.ScalarMul(BigUInt{order + 1}, g), g);
}

TEST(Ecc, AdditionIsCommutativeAndAssociative) {
  const Curve curve(CurveParams::Tiny97());
  const AffinePoint g = curve.Generator();
  const AffinePoint g2 = curve.Double(g);
  const AffinePoint g3 = curve.Add(g2, g);
  EXPECT_EQ(curve.Add(g, g2), g3);
  EXPECT_EQ(curve.Add(curve.Add(g, g2), g3), curve.Add(g, curve.Add(g2, g3)));
}

TEST(Ecc, NegationAndIdentity) {
  const Curve curve(CurveParams::Tiny97());
  const AffinePoint g = curve.Generator();
  const AffinePoint neg = curve.Negate(g);
  EXPECT_TRUE(curve.IsOnCurve(neg));
  EXPECT_TRUE(curve.Add(g, neg).infinity);
  EXPECT_EQ(curve.Add(g, AffinePoint::Infinity()), g);
}

TEST(Ecc, P192GeneratorIsOnCurve) {
  const Curve curve(CurveParams::Secp192r1());
  EXPECT_TRUE(curve.IsOnCurve(curve.Generator()));
}

TEST(Ecc, P192OrderAnnihilatesGenerator) {
  const Curve curve(CurveParams::Secp192r1());
  // n*G computed as (n-1)*G + G to exercise both add paths; n*G = infinity.
  const AffinePoint g = curve.Generator();
  const AffinePoint almost =
      curve.ScalarMul(curve.Params().order - BigUInt{1}, g);
  EXPECT_TRUE(curve.IsOnCurve(almost));
  EXPECT_EQ(almost, curve.Negate(g)) << "(n-1)G must equal -G";
  EXPECT_TRUE(curve.Add(almost, g).infinity);
}

TEST(Ecc, P192ScalarMulIsHomomorphic) {
  auto rng = test::TestRng();
  const Curve curve(CurveParams::Secp192r1());
  const AffinePoint g = curve.Generator();
  const BigUInt k1 = rng.ExactBits(64);
  const BigUInt k2 = rng.ExactBits(64);
  const AffinePoint lhs = curve.ScalarMul(k1 + k2, g);
  const AffinePoint rhs = curve.Add(curve.ScalarMul(k1, g),
                                    curve.ScalarMul(k2, g));
  EXPECT_EQ(lhs, rhs);
}

TEST(Ecc, EcdhSharedSecretAgrees) {
  auto rng = test::TestRng();
  const Curve curve(CurveParams::Secp192r1());
  const AffinePoint g = curve.Generator();
  const BigUInt alice = rng.ExactBits(160);
  const BigUInt bob = rng.ExactBits(160);
  const AffinePoint alice_pub = curve.ScalarMul(alice, g);
  const AffinePoint bob_pub = curve.ScalarMul(bob, g);
  EXPECT_EQ(curve.ScalarMul(alice, bob_pub), curve.ScalarMul(bob, alice_pub));
}

TEST(Ecc, StatsCountFieldMultiplications) {
  const Curve curve(CurveParams::Secp192r1());
  EccStats stats;
  curve.ScalarMul(BigUInt::FromHex("deadbeefcafebabe"), curve.Generator(),
                  &stats);
  EXPECT_GT(stats.field_mults, 0u);
  EXPECT_GT(stats.field_squares, 0u);
  // 64-bit scalar: 63 doubles (~11M each) + ~40 adds (~16M each) + the
  // final Jacobian-to-affine conversion.
  const std::uint64_t total = stats.field_mults + stats.field_squares;
  EXPECT_GT(total, 63u * 8);
  EXPECT_LT(total, 64u * 12 + 45u * 17 + 20);
  EXPECT_EQ(stats.ModeledCycles(192), total * (3 * 192 + 4));
}

TEST(Ecc, ScalarReducedModuloOrder) {
  const Curve curve(CurveParams::Secp192r1());
  const AffinePoint g = curve.Generator();
  const BigUInt k{12345};
  EXPECT_EQ(curve.ScalarMul(k + curve.Params().order, g),
            curve.ScalarMul(k, g));
  EXPECT_TRUE(curve.ScalarMul(curve.Params().order, g).infinity);
  EXPECT_TRUE(curve.ScalarMul(BigUInt{0}, g).infinity);
}

}  // namespace
}  // namespace mont::crypto
