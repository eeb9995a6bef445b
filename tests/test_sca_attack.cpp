// The side-channel lab end to end: gate-level batched trace capture
// (TraceSet / GateLevelCapture), the CPA/DPA attack engine recovering
// secret exponent bits from unprotected executions, and countermeasure
// closure — the same attack collapsing to chance on blinded executions.
//
// Everything is deterministic (per-test seeded RNG, exact switching
// counts from the compiled simulator, seeded Gaussian noise), so the
// recovery-rate assertions are reproducible, not statistical gambles.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "bignum/random.hpp"
#include "crypto/rsa.hpp"
#include "sca/analysis.hpp"
#include "sca/attack.hpp"
#include "sca/trace.hpp"
#include "testutil.hpp"

namespace mont::sca {
namespace {

using bignum::BigUInt;

// The lab's documented trace budget: one batch pass of the 64-lane
// simulator.  The acceptance tests below hold at this budget.
constexpr std::size_t kTraceBudget = 64;

std::vector<BigUInt> RandomBases(bignum::RandomBigUInt& rng, const BigUInt& n,
                                 std::size_t count) {
  std::vector<BigUInt> bases;
  bases.reserve(count);
  for (std::size_t i = 0; i < count; ++i) bases.push_back(rng.Below(n));
  return bases;
}

// ---------------------------------------------------------------------------
// TraceSet utilities
// ---------------------------------------------------------------------------

TEST(TraceSet, AppendColumnHeadAndEnergy) {
  TraceSet set;
  set.Append(std::vector<double>{1, 2, 3});
  set.Append(std::vector<double>{4, 5, 6});
  EXPECT_EQ(set.Count(), 2u);
  EXPECT_EQ(set.Samples(), 3u);
  std::vector<double> column;
  set.Column(1, column);
  EXPECT_EQ(column, (std::vector<double>{2, 5}));
  EXPECT_DOUBLE_EQ(set.TraceEnergy(1), 15.0);
  const TraceSet head = set.Head(1);
  EXPECT_EQ(head.Count(), 1u);
  EXPECT_DOUBLE_EQ(head.At(0, 2), 3.0);
  EXPECT_THROW(set.Append(std::vector<double>{1}), std::invalid_argument);
  const auto mean = set.MeanTrace();
  EXPECT_DOUBLE_EQ(mean[0], 2.5);
}

TEST(TraceSet, CompressSumsWindows) {
  TraceSet set;
  set.Append(std::vector<double>{1, 2, 3, 4, 5});
  const TraceSet compressed = set.Compress(2);
  EXPECT_EQ(compressed.Samples(), 3u);
  EXPECT_DOUBLE_EQ(compressed.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(compressed.At(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(compressed.At(0, 2), 5.0);  // trailing partial window
}

TEST(TraceSet, GaussianNoiseIsSeededAndZeroMeanish) {
  TraceSet a, b;
  const std::vector<double> flat(512, 10.0);
  a.Append(flat);
  b.Append(flat);
  a.AddGaussianNoise(2.0, 42);
  b.AddGaussianNoise(2.0, 42);
  double sum = 0;
  bool any_moved = false;
  for (std::size_t s = 0; s < a.Samples(); ++s) {
    EXPECT_DOUBLE_EQ(a.At(0, s), b.At(0, s)) << "same seed, same noise";
    any_moved |= a.At(0, s) != 10.0;
    sum += a.At(0, s) - 10.0;
  }
  EXPECT_TRUE(any_moved);
  EXPECT_LT(std::abs(sum / 512.0), 0.5) << "zero-mean-ish at sigma 2";
  TraceSet c;
  c.Append(flat);
  c.AddGaussianNoise(2.0, 43);
  bool differs = false;
  for (std::size_t s = 0; s < c.Samples(); ++s) {
    differs |= c.At(0, s) != a.At(0, s);
  }
  EXPECT_TRUE(differs) << "different seed, different noise";
}

TEST(TraceSet, AlignRecoversInjectedShift) {
  // A distinctive reference with one clear peak; shifted copies align
  // back to it.
  std::vector<double> reference(64, 1.0);
  for (int i = 28; i < 36; ++i) reference[i] = 10.0 + (i % 3);
  TraceSet shifted;
  for (const int shift : {-3, 0, 2}) {
    std::vector<double> trace(64, 1.0);
    for (int i = 0; i < 64; ++i) {
      const int src = i + shift;
      if (src >= 0 && src < 64) trace[i] = reference[src];
    }
    shifted.Append(trace);
  }
  const TraceSet aligned = shifted.AlignTo(reference, 4);
  for (std::size_t t = 0; t < aligned.Count(); ++t) {
    for (int i = 20; i < 44; ++i) {  // compare away from the padded edges
      EXPECT_DOUBLE_EQ(aligned.At(t, i), reference[i])
          << "trace " << t << " sample " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Gate-level capture
// ---------------------------------------------------------------------------

TEST(GateLevelCapture, TraceShapeAndDeterminism) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  GateLevelCapture capture(n);
  const auto xs = RandomBases(rng, n << 1, 5);
  const auto ys = RandomBases(rng, n << 1, 5);
  const TraceSet a = capture.CaptureMultiplications(xs, ys);
  EXPECT_EQ(a.Count(), 5u);
  EXPECT_EQ(a.Samples(), capture.SamplesPerMultiplication());
  EXPECT_EQ(a.Samples(), 3 * capture.l() + 4);
  // Same stimuli on a fresh capture: identical traces (and the gate-level
  // samples are real activity — nonzero for nonzero operands).
  GateLevelCapture capture2(n);
  const TraceSet b = capture2.CaptureMultiplications(xs, ys);
  for (std::size_t t = 0; t < a.Count(); ++t) {
    for (std::size_t s = 0; s < a.Samples(); ++s) {
      ASSERT_DOUBLE_EQ(a.At(t, s), b.At(t, s));
    }
  }
  EXPECT_GT(a.TraceEnergy(0), 0.0);
}

TEST(GateLevelCapture, RejectsBadOperands) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(12);
  GateLevelCapture capture(n);
  const std::vector<BigUInt> ok{BigUInt{1}};
  const std::vector<BigUInt> big{n << 1};
  EXPECT_THROW(capture.CaptureMultiplications(ok, big),
               std::invalid_argument);
  const std::vector<BigUInt> base_big{n};
  EXPECT_THROW(capture.CaptureModExps(base_big, BigUInt{3}),
               std::invalid_argument);
  EXPECT_THROW(capture.CaptureModExps(ok, BigUInt{0}),
               std::invalid_argument);
}

// Satellite acceptance: lane k of one 64-lane batched capture equals the
// capture of stimulus k alone — per-lane toggle accounting is exact, not
// an aggregate.
TEST(GateLevelCapture, BatchedLanesMatchScalarCapture) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(14);
  const BigUInt two_n = n << 1;
  const std::size_t count = 64;
  const auto xs = RandomBases(rng, two_n, count);
  const auto ys = RandomBases(rng, two_n, count);
  GateLevelCapture batched(n);
  const TraceSet batch = batched.CaptureMultiplications(xs, ys);
  ASSERT_EQ(batch.Count(), count);
  for (const std::size_t lane : {std::size_t{0}, std::size_t{1},
                                 std::size_t{17}, std::size_t{63}}) {
    GateLevelCapture scalar(n);
    const std::vector<BigUInt> x1{xs[lane]}, y1{ys[lane]};
    const TraceSet solo = scalar.CaptureMultiplications(x1, y1);
    for (std::size_t s = 0; s < batch.Samples(); ++s) {
      ASSERT_DOUBLE_EQ(batch.At(lane, s), solo.At(0, s))
          << "lane " << lane << " sample " << s;
    }
  }
}

TEST(GateLevelCapture, BatchedModExpLanesMatchScalarCapture) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(12);
  const BigUInt d = rng.ExactBits(8);
  const auto bases = RandomBases(rng, n, 6);
  GateLevelCapture batched(n);
  const TraceSet batch = batched.CaptureModExps(bases, d);
  for (const std::size_t lane : {std::size_t{0}, std::size_t{5}}) {
    GateLevelCapture scalar(n);
    const std::vector<BigUInt> one_base{bases[lane]};
    const TraceSet solo = scalar.CaptureModExps(one_base, d);
    ASSERT_EQ(solo.Samples(), batch.Samples());
    for (std::size_t s = 0; s < batch.Samples(); ++s) {
      ASSERT_DOUBLE_EQ(batch.At(lane, s), solo.At(0, s));
    }
  }
}

// Capture layout: a capture of more than 64 executions is its 64-lane
// passes laid end to end, row by row, and a noisy capture is the
// noise-free one plus the seeded noise stream drawn in row-major order.

TraceSet Concatenate(const std::vector<TraceSet>& parts) {
  TraceSet out;
  for (const TraceSet& part : parts) {
    for (std::size_t t = 0; t < part.Count(); ++t) out.Append(part.Trace(t));
  }
  return out;
}

void ExpectSameTraces(const TraceSet& a, const TraceSet& b) {
  ASSERT_EQ(a.Count(), b.Count());
  ASSERT_EQ(a.Samples(), b.Samples());
  for (std::size_t t = 0; t < a.Count(); ++t) {
    for (std::size_t s = 0; s < a.Samples(); ++s) {
      ASSERT_EQ(a.At(t, s), b.At(t, s)) << "trace " << t << " sample " << s;
    }
  }
}

TEST(GateLevelCapture, ModExpCaptureIsItsPassesConcatenated) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(12);
  const BigUInt d = rng.ExactBits(8);
  const auto bases = RandomBases(rng, n, 130);  // passes of 64, 64 and 2
  GateLevelCapture whole(n);
  const TraceSet all = whole.CaptureModExps(bases, d);
  // Chunk by chunk on one instance, so each pass starts from the state
  // the previous pass left behind, exactly as inside the whole capture.
  GateLevelCapture chunked(n);
  std::vector<TraceSet> parts;
  for (const auto& [at, count] : {std::pair<std::size_t, std::size_t>{0, 64},
                                  {64, 64}, {128, 2}}) {
    parts.push_back(chunked.CaptureModExps(
        std::span<const BigUInt>(bases).subspan(at, count), d));
  }
  ExpectSameTraces(all, Concatenate(parts));
}

TEST(GateLevelCapture, MultiplicationCaptureWithPartialLastPass) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(14);
  const auto xs = RandomBases(rng, n << 1, 70);  // passes of 64 and 6
  const auto ys = RandomBases(rng, n << 1, 70);
  GateLevelCapture whole(n);
  const TraceSet all = whole.CaptureMultiplications(xs, ys);
  GateLevelCapture chunked(n);
  const std::span<const BigUInt> x(xs), y(ys);
  const TraceSet first =
      chunked.CaptureMultiplications(x.first(64), y.first(64));
  const TraceSet last =
      chunked.CaptureMultiplications(x.subspan(64), y.subspan(64));
  ExpectSameTraces(all, Concatenate({first, last}));
}

TEST(GateLevelCapture, NoisyCaptureIsNoiseFreePlusSeededNoise) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(12);
  const BigUInt d = rng.ExactBits(8);
  const auto bases = RandomBases(rng, n, 130);
  CaptureOptions noisy_options;
  noisy_options.noise_sigma = 1.5;
  noisy_options.noise_seed = 0xfeed;
  GateLevelCapture noisy(n, noisy_options);
  GateLevelCapture clean(n);
  TraceSet expected = clean.CaptureModExps(bases, d);
  expected.AddGaussianNoise(noisy_options.noise_sigma,
                            noisy_options.noise_seed);
  ExpectSameTraces(noisy.CaptureModExps(bases, d), expected);
}

TEST(TraceSet, AdoptedStorageMustMatchShape) {
  const TraceSet set(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(set.Count(), 2u);
  EXPECT_DOUBLE_EQ(set.At(1, 0), 4.0);
  EXPECT_THROW(TraceSet(2, 3, std::vector<double>(5)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CPA/DPA recovery on unprotected executions
// ---------------------------------------------------------------------------

TEST(CpaAttack, RecoversExponentFromUnprotectedTraces) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  const BigUInt d = rng.ExactBits(16);
  const auto bases = RandomBases(rng, n, kTraceBudget);
  GateLevelCapture capture(n);
  const TraceSet traces = capture.CaptureModExps(bases, d);
  CpaAttack attack(n);
  const AttackResult result = attack.Recover(traces, bases, d.BitLength());
  EXPECT_EQ(result.bits.size(), d.BitLength() - 1);
  // The acceptance bar is >= 90% of the targeted bits at the documented
  // 64-trace budget; the noise-free capture in fact recovers all of them.
  EXPECT_GE(result.RecoveredFraction(d), 0.9);
  EXPECT_EQ(result.recovered, d) << "noise-free traces: exact recovery";
  for (const BitResult& bit : result.bits) {
    EXPECT_GT(bit.confidence, 0.5) << "bit " << bit.bit_index;
  }
}

TEST(CpaAttack, DifferenceOfMeansDistinguisherAlsoRecovers) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  const BigUInt d = rng.ExactBits(14);
  const auto bases = RandomBases(rng, n, kTraceBudget);
  GateLevelCapture capture(n);
  const TraceSet traces = capture.CaptureModExps(bases, d);
  AttackOptions options;
  options.distinguisher = Distinguisher::kDifferenceOfMeans;
  CpaAttack attack(n, options);
  const AttackResult result = attack.Recover(traces, bases, d.BitLength());
  EXPECT_GE(result.RecoveredFraction(d), 0.9);
}

TEST(CpaAttack, HammingWeightModelRecoversAtLargerBudget) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  const BigUInt d = rng.ExactBits(12);
  const auto bases = RandomBases(rng, n, 128);
  GateLevelCapture capture(n);
  const TraceSet traces = capture.CaptureModExps(bases, d);
  AttackOptions options;
  options.leakage = Leakage::kHammingWeightOutput;
  CpaAttack attack(n, options);
  const AttackResult result = attack.Recover(traces, bases, d.BitLength());
  EXPECT_GE(result.RecoveredFraction(d), 0.9)
      << "the classic single-point CPA needs more traces than the "
         "template-strength state model, but converges";
}

// Rank convergence under noise: a budget too small to disclose, a larger
// one that does — MeasurementsToDisclosure finds the boundary.
TEST(CpaAttack, RankConvergesWithTraceCountUnderNoise) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  const BigUInt d = rng.ExactBits(16);
  const auto bases = RandomBases(rng, n, kTraceBudget);
  CaptureOptions capture_options;
  capture_options.noise_sigma = 12.0;  // swamps the ~1-sigma signal at n=2
  GateLevelCapture capture(n, capture_options);
  const TraceSet traces = capture.CaptureModExps(bases, d);
  CpaAttack attack(n);
  const double at_4 =
      attack.Recover(traces.Head(4), {bases.data(), 4}, d.BitLength())
          .RecoveredFraction(d);
  const double at_64 =
      attack.Recover(traces, bases, d.BitLength()).RecoveredFraction(d);
  EXPECT_LT(at_4, 0.9) << "4 noisy traces must not disclose";
  EXPECT_GE(at_64, 0.9) << "the full budget averages the noise away";
  EXPECT_GE(at_64, at_4);
  const std::size_t mtd =
      attack.MeasurementsToDisclosure(traces, bases, d, 0.9, 8);
  EXPECT_GT(mtd, 4u);
  EXPECT_LE(mtd, kTraceBudget);
}

// ---------------------------------------------------------------------------
// Countermeasure closure: blinding defeats the same attack
// ---------------------------------------------------------------------------

// RSA-style base blinding: the device exponentiates c * r^e mod n for a
// fresh r per execution while the attacker still predicts from c.  At
// the very budget that discloses the unprotected key, recovery collapses
// to coin-flipping.
TEST(CpaAttack, BaseBlindingDegradesRecoveryToChance) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  const BigUInt d = rng.ExactBits(16);
  const BigUInt e{65537};
  const auto known = RandomBases(rng, n, kTraceBudget);
  std::vector<BigUInt> executed;  // what the blinded device actually runs
  for (const BigUInt& c : known) {
    executed.push_back(crypto::BlindRsaBase(c, e, n, rng));
  }
  GateLevelCapture capture(n);
  const TraceSet unprotected = capture.CaptureModExps(known, d);
  const TraceSet blinded = capture.CaptureModExps(executed, d);
  CpaAttack attack(n);
  const double open_rate =
      attack.Recover(unprotected, known, d.BitLength()).RecoveredFraction(d);
  const double blinded_rate =
      attack.Recover(blinded, known, d.BitLength()).RecoveredFraction(d);
  EXPECT_GE(open_rate, 0.9) << "same budget discloses the unprotected key";
  EXPECT_LE(blinded_rate, 0.6) << "blinding: chance-level recovery";
  EXPECT_EQ(attack.MeasurementsToDisclosure(blinded, known, d, 0.9, 8), 0u)
      << "no prefix of the blinded budget discloses";
}

// ---------------------------------------------------------------------------
// TVLA fixed-vs-random on RSA: unblinded leaks, blinded does not
// ---------------------------------------------------------------------------

TEST(Tvla, FixedVsRandomRsaUnblindedLeaksBlindedCloses) {
  auto rng = test::TestRng();
  const crypto::RsaKeyPair key = crypto::GenerateRsaKey(32, rng);
  const std::size_t per_class = 24;
  const BigUInt fixed = rng.Below(key.n);
  std::vector<BigUInt> fixed_class(per_class, fixed);
  const auto random_class = RandomBases(rng, key.n, per_class);

  GateLevelCapture capture(key.n);
  // Unblinded: the device exponentiates the inputs as-is — the fixed
  // class is one repeated trace, and the per-sample t-statistic explodes.
  const TraceSet fixed_traces = capture.CaptureModExps(fixed_class, key.d);
  const TraceSet random_traces = capture.CaptureModExps(random_class, key.d);
  const double unblinded_peak = WelchTPeak(fixed_traces, random_traces);
  EXPECT_GT(unblinded_peak, 4.5)
      << "unblinded fixed-vs-random must trip the TVLA threshold";

  // Blinded: each execution runs on c * r^e mod n (fresh r), so even the
  // fixed class sees fresh operands per trace.
  const auto blind = [&](const BigUInt& c) {
    return crypto::BlindRsaBase(c, key.e, key.n, rng);
  };
  std::vector<BigUInt> fixed_blinded, random_blinded;
  for (std::size_t i = 0; i < per_class; ++i) {
    fixed_blinded.push_back(blind(fixed));
    random_blinded.push_back(blind(random_class[i]));
  }
  const double blinded_peak =
      WelchTPeak(capture.CaptureModExps(fixed_blinded, key.d),
                 capture.CaptureModExps(random_blinded, key.d));
  // Peak-over-thousands-of-samples inflates the null statistic (the
  // standard TVLA multiple-comparison caveat), so the closure assertion
  // is a margin: the blinded peak must lose an order of magnitude, and
  // the unblinded peak must dwarf the threshold.
  EXPECT_GT(unblinded_peak, 10.0 * blinded_peak)
      << "blinding must collapse the fixed-vs-random separation";
  EXPECT_LT(blinded_peak, 6.0)
      << "blinded peak must sit near the null band";
}

// The legacy proxy still holds at gate level: Algorithm 2's *timing* is
// input-independent while its power is not (now measured on every net of
// the real netlist, not the 3-register software model).
TEST(Tvla, GateLevelPowerVariesWhileTimingDoesNot) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(20);
  const BigUInt two_n = n << 1;
  GateLevelCapture capture(n);
  const auto xs = RandomBases(rng, two_n, 16);
  const auto ys = RandomBases(rng, two_n, 16);
  const TraceSet traces = capture.CaptureMultiplications(xs, ys);
  // Timing: every trace has exactly 3l+4 samples by construction — the
  // capture would throw if DONE drifted.  Power: energies differ.
  double min_energy = traces.TraceEnergy(0), max_energy = min_energy;
  for (std::size_t t = 1; t < traces.Count(); ++t) {
    min_energy = std::min(min_energy, traces.TraceEnergy(t));
    max_energy = std::max(max_energy, traces.TraceEnergy(t));
  }
  EXPECT_GT(max_energy, min_energy);
}

}  // namespace
}  // namespace mont::sca
