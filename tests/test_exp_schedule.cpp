// Tests for the exponentiation schedule (bignum/exp_schedule.hpp): every
// mode executed over Algorithm 2 agrees with plain modular exponentiation,
// the step sequences follow the paper's §4.5 flow and the known operation
// counts, and the SPA reading of the schedules shows the leakage
// difference between left-to-right binary and the Montgomery ladder or the
// fixed window.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/exp_schedule.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "testutil.hpp"

namespace mont::bignum {
namespace {

std::vector<ExpStep> Schedule(ExpMode mode, const BigUInt& exponent) {
  std::vector<ExpStep> steps;
  BuildExpSchedule(mode, exponent, &steps);
  return steps;
}

std::size_t CountOps(const std::vector<ExpStep>& steps, ExpOp op) {
  return static_cast<std::size_t>(
      std::count_if(steps.begin(), steps.end(),
                    [op](const ExpStep& step) { return step.op == op; }));
}

std::vector<ExpOp> MainLoopOps(const std::vector<ExpStep>& steps) {
  std::vector<ExpOp> ops;
  for (const ExpStep& step : steps) {
    if (step.op != ExpOp::kDomain) ops.push_back(step.op);
  }
  return ops;
}

// The suite's parameter keeps the numbering of the exponentiation
// algorithms this suite has always covered (2 was the sliding window,
// which no caller uses any more), so the parameterized test ids stay put.
enum class Algorithm {
  kLeftToRight = 0,
  kRightToLeft = 1,
  kLadder = 3,
  kFixedWindow = 4,
};

ExpMode ModeOf(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kLeftToRight: return ExpMode::kAlg3;
    case Algorithm::kRightToLeft: return ExpMode::kRightToLeft;
    case Algorithm::kLadder: return ExpMode::kLadder;
    case Algorithm::kFixedWindow: return ExpMode::kFixedWindow;
  }
  return ExpMode::kAlg3;
}

class AllAlgorithms : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AllAlgorithms, MatchesReference) {
  auto rng = test::TestRng();
  for (const std::size_t bits : {8u, 32u, 96u, 192u}) {
    const BigUInt n = rng.OddExactBits(bits);
    const BitSerialMontgomery ctx(n);
    for (int trial = 0; trial < 4; ++trial) {
      const BigUInt base = rng.Below(n);
      const BigUInt e = rng.ExactBits(bits);
      EXPECT_EQ(test::Alg2ModExp(ctx, base, e, ModeOf(GetParam())),
                BigUInt::ModExp(base, e, n))
          << "bits=" << bits;
    }
  }
}

TEST_P(AllAlgorithms, EdgeExponents) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(40);
  const BitSerialMontgomery ctx(n);
  const BigUInt base = rng.Below(n);
  const ExpMode mode = ModeOf(GetParam());
  EXPECT_TRUE(Schedule(mode, BigUInt{0}).empty());
  EXPECT_TRUE(test::Alg2ModExp(ctx, base, BigUInt{0}, mode).IsOne());
  EXPECT_EQ(test::Alg2ModExp(ctx, base, BigUInt{1}, mode), base);
  EXPECT_EQ(test::Alg2ModExp(ctx, base, BigUInt{2}, mode), (base * base) % n);
  EXPECT_EQ(test::Alg2ModExp(ctx, base, BigUInt{0b1011}, mode),
            BigUInt::ModExp(base, BigUInt{0b1011}, n));
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AllAlgorithms,
    ::testing::Values(Algorithm::kLeftToRight, Algorithm::kRightToLeft,
                      Algorithm::kLadder, Algorithm::kFixedWindow),
    [](const auto& info) {
      switch (info.param) {
        case Algorithm::kLeftToRight: return "LeftToRight";
        case Algorithm::kRightToLeft: return "RightToLeft";
        case Algorithm::kLadder: return "MontgomeryLadder";
        case Algorithm::kFixedWindow: return "FixedWindow";
      }
      return "unknown";
    });

TEST(ExpSchedule, Alg3IsThePaperFlow) {
  using enum ExpSlot;
  // e = 0b1011: the top bit is A = M~, then bits 0, 1, 1.
  const std::vector<ExpStep> want = {
      {kMont, kBase, kR2, ExpOp::kDomain},  // pre-computation Mont(M, R^2)
      {kA, kMont, kMont, ExpOp::kSquare},
      {kA, kA, kA, ExpOp::kSquare},
      {kA, kA, kMont, ExpOp::kMultiply},
      {kA, kA, kA, ExpOp::kSquare},
      {kA, kA, kMont, ExpOp::kMultiply},
      {kA, kA, kOne, ExpOp::kDomain},  // post-processing Mont(A, 1)
  };
  EXPECT_EQ(Schedule(ExpMode::kAlg3, BigUInt{0b1011}), want);
  // Exponent 1: domain entry and exit around no loop at all.
  const std::vector<ExpStep> one = {{kMont, kBase, kR2, ExpOp::kDomain},
                                    {kA, kMont, kOne, ExpOp::kDomain}};
  EXPECT_EQ(Schedule(ExpMode::kAlg3, BigUInt{1}), one);
}

TEST(ExpSchedule, FixedWindowBuildsTheTableThenOneMultiplyPerWindow) {
  using enum ExpSlot;
  const ExpSlot t0 = TableSlot(0), t1 = TableSlot(1), t2 = TableSlot(2),
                t3 = TableSlot(3);
  std::vector<ExpStep> steps;
  // w = 2, e = 0b10'11: the top window reads T[2], the next T[3].
  BuildExpSchedule(ExpMode::kFixedWindow, BigUInt{0b1011}, &steps, 2);
  const std::vector<ExpStep> want = {
      {kMont, kBase, kR2, ExpOp::kDomain},  // M~
      {t0, kOne, kR2, ExpOp::kDomain},      // T[0] = Mont(1)
      {t1, t0, kMont, ExpOp::kMultiply},    // T[i] = T[i-1] * M~
      {t2, t1, kMont, ExpOp::kMultiply},
      {t3, t2, kMont, ExpOp::kMultiply},
      {kA, t0, t2, ExpOp::kMultiply},  // top window
      {kA, kA, kA, ExpOp::kSquare},
      {kA, kA, kA, ExpOp::kSquare},
      {kA, kA, t3, ExpOp::kMultiply},
      {kA, kA, kOne, ExpOp::kDomain},
  };
  EXPECT_EQ(steps, want);
  EXPECT_EQ(ExpRegisterCount(steps), kExpSlotCount + 4);
  // A zero window still multiplies, by T[0].
  BuildExpSchedule(ExpMode::kFixedWindow, BigUInt{0b0100}, &steps, 2);
  EXPECT_EQ(steps[5], (ExpStep{kA, t0, TableSlot(1), ExpOp::kMultiply}));
  EXPECT_EQ(steps[8], (ExpStep{kA, kA, t0, ExpOp::kMultiply}));
  EXPECT_THROW(BuildExpSchedule(ExpMode::kFixedWindow, BigUInt{5}, &steps, 0),
               std::invalid_argument);
  EXPECT_THROW(BuildExpSchedule(ExpMode::kFixedWindow, BigUInt{5}, &steps,
                                kMaxWindowBits + 1),
               std::invalid_argument);
}

TEST(ExpSchedule, BuildReplacesThePreviousSchedule) {
  std::vector<ExpStep> steps;
  BuildExpSchedule(ExpMode::kLadder, BigUInt::PowerOfTwo(80), &steps);
  BuildExpSchedule(ExpMode::kAlg3, BigUInt{6}, &steps);
  EXPECT_EQ(steps, Schedule(ExpMode::kAlg3, BigUInt{6}));
  BuildExpSchedule(ExpMode::kRightToLeft, BigUInt{0}, &steps);
  EXPECT_TRUE(steps.empty());
}

TEST(ExpAlgorithms, OperationCountsFollowClosedForms) {
  auto rng = test::TestRng();
  const std::size_t ebits = 256;
  const BigUInt e = rng.ExactBits(ebits);
  const std::size_t weight = e.PopCount();

  const std::vector<ExpStep> l2r = Schedule(ExpMode::kAlg3, e);
  const std::vector<ExpStep> r2l = Schedule(ExpMode::kRightToLeft, e);
  const std::vector<ExpStep> ladder = Schedule(ExpMode::kLadder, e);

  // L2R binary: t-1 squarings, weight-1 multiplications, entry and exit.
  EXPECT_EQ(CountOps(l2r, ExpOp::kSquare), ebits - 1);
  EXPECT_EQ(CountOps(l2r, ExpOp::kMultiply), weight - 1);
  EXPECT_EQ(CountOps(l2r, ExpOp::kDomain), 2u);
  EXPECT_EQ(l2r.size(), ebits + weight);
  // R2L binary: t-1 squarings of the power chain, weight multiplications,
  // and a second domain entry for A = 1.
  EXPECT_EQ(CountOps(r2l, ExpOp::kSquare), ebits - 1);
  EXPECT_EQ(CountOps(r2l, ExpOp::kMultiply), weight);
  EXPECT_EQ(CountOps(r2l, ExpOp::kDomain), 3u);
  // Ladder: exactly one square + one multiply per exponent bit.
  EXPECT_EQ(CountOps(ladder, ExpOp::kSquare), ebits);
  EXPECT_EQ(CountOps(ladder, ExpOp::kMultiply), ebits);
  EXPECT_EQ(CountOps(ladder, ExpOp::kDomain), 3u);
  // Total work for a balanced exponent: L2R < ladder.
  EXPECT_LT(l2r.size(), ladder.size());
  // Fixed window of w bits: the 2^w - 1 table products, w squarings per
  // window below the top one, one multiply per window, and the domain
  // entries of M~ and T[0] besides the exit.
  const std::size_t w = kDefaultWindowBits;
  const std::size_t windows = (ebits + w - 1) / w;
  const std::vector<ExpStep> window = Schedule(ExpMode::kFixedWindow, e);
  EXPECT_EQ(CountOps(window, ExpOp::kSquare), w * (windows - 1));
  EXPECT_EQ(CountOps(window, ExpOp::kMultiply), (1u << w) - 1 + windows);
  EXPECT_EQ(CountOps(window, ExpOp::kDomain), 3u);
  EXPECT_LT(window.size(), l2r.size());
}

// --- SPA: the trace of L2R binary leaks the exponent; the ladder doesn't.
TEST(ExpAlgorithms, SpaRecoversExponentFromBinaryL2R) {
  auto rng = test::TestRng();
  const BigUInt e = rng.ExactBits(64);
  const std::vector<bool> recovered =
      RecoverExponentFromTrace(Schedule(ExpMode::kAlg3, e));
  // Recovered bits are e's bits below the leading one, MSB first.
  ASSERT_EQ(recovered.size(), e.BitLength() - 1);
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    const std::size_t bit_index = e.BitLength() - 2 - i;
    EXPECT_EQ(recovered[i], e.Bit(bit_index)) << "position " << i;
  }
}

TEST(ExpAlgorithms, SpaLearnsNothingFromLadder) {
  auto rng = test::TestRng();
  const BigUInt e1 = rng.ExactBits(64);
  BigUInt e2 = e1;
  e2.SetBit(10, !e2.Bit(10));  // different key...
  const std::vector<ExpStep> t1 = Schedule(ExpMode::kLadder, e1);
  const std::vector<ExpStep> t2 = Schedule(ExpMode::kLadder, e2);
  EXPECT_EQ(MainLoopOps(t1), MainLoopOps(t2))
      << "...but identical operation sequences: nothing to read";
  // And the recovery yields a constant pattern independent of the key:
  // every square is preceded by a multiply, so every square but the last
  // reads as followed by one.
  const auto r1 = RecoverExponentFromTrace(t1);
  EXPECT_EQ(r1, RecoverExponentFromTrace(t2));
  for (std::size_t i = 0; i + 1 < r1.size(); ++i) EXPECT_TRUE(r1[i]);
  EXPECT_FALSE(r1.back()) << "the trace's one fixed 'false' is positional, "
                             "not key-dependent";
}

// The fixed window's operation sequence depends only on the exponent's
// length; which table entry a window multiplies by is invisible to SPA.
TEST(ExpAlgorithms, SpaLearnsNothingFromFixedWindow) {
  auto rng = test::TestRng();
  const BigUInt e1 = rng.ExactBits(64);
  const BigUInt e2 = BigUInt::PowerOfTwo(63);  // every lower window is zero
  const std::vector<ExpStep> t1 = Schedule(ExpMode::kFixedWindow, e1);
  const std::vector<ExpStep> t2 = Schedule(ExpMode::kFixedWindow, e2);
  EXPECT_NE(t1, t2);
  EXPECT_EQ(MainLoopOps(t1), MainLoopOps(t2));
  EXPECT_EQ(RecoverExponentFromTrace(t1), RecoverExponentFromTrace(t2));
}

}  // namespace
}  // namespace mont::bignum
