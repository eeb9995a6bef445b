// The windowed §4.5 runner (core::MmmcModExpRunner) and its closed-form
// Algorithm 2 predictor.
//
// A pass split into windows must be bit-identical to the one-window pass:
// every toggle sample (including each call's sample 0, which counts
// against whatever the previous call left in the circuit) and every
// result, over consecutive calls on one runner.  The windows run on
// worker threads, so this suite also runs under the TSan preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "bignum/montgomery.hpp"
#include "core/netlist_gen.hpp"
#include "core/sim_drivers.hpp"
#include "rtl/compiled.hpp"
#include "testutil.hpp"

namespace mont::core {
namespace {

using bignum::BigUInt;

TEST(Alg2Predictor, MatchesMultiplyAlg2) {
  for (std::size_t l = 2; l <= 130; ++l) {
    auto rng = test::TestRng(l);
    const BigUInt n = rng.OddExactBits(l);
    const BigUInt two_n = n << 1;
    const bignum::BitSerialMontgomery reference(n);
    const Alg2Predictor predictor(n);
    std::vector<BigUInt> operands = {BigUInt{0}, BigUInt{1}, n - 1, n,
                                     two_n - 1};
    for (int i = 0; i < 6; ++i) operands.push_back(rng.Below(two_n));
    for (const BigUInt& x : operands) {
      for (const BigUInt& y : operands) {
        ASSERT_EQ(predictor.Multiply(x, y), reference.MultiplyAlg2(x, y))
            << "l=" << l << " x=" << x.ToHex() << " y=" << y.ToHex();
      }
    }
  }
}

TEST(Alg2Predictor, RejectsEvenAndTrivialModuli) {
  EXPECT_THROW(Alg2Predictor(BigUInt{10}), std::invalid_argument);
  EXPECT_THROW(Alg2Predictor(BigUInt{1}), std::invalid_argument);
}

/// One runner over a freshly generated l-bit MMMC, counting toggles on
/// every net, as a capture does.
class Rig {
 public:
  Rig(const BigUInt& n, std::size_t l)
      : n_(n),
        gen_(BuildMmmcNetlist(l)),
        compiled_(*gen_.netlist),
        runner_(gen_, n_, [this] {
          auto sim = std::make_unique<rtl::BatchSimulator>(compiled_);
          DriveBusAllLanes(*sim, gen_.n_in, n_);
          sim->SetInputAll(gen_.start, false);
          sim->Settle();
          sim->EnableToggleCapture();
          return sim;
        }) {}

  MmmcModExpRunner& runner() { return runner_; }
  const MmmcNetlist& gen() const { return gen_; }

  struct Output {
    std::vector<std::uint32_t> samples;
    std::vector<BigUInt> results;
    std::size_t windows = 0;
  };

  Output Run(const std::vector<BigUInt>& bases, const BigUInt& exponent,
             std::size_t windows) {
    Output out;
    out.samples.resize(MmmcModExpRunner::MmmCount(exponent) *
                       runner_.SamplesPerMmm() * bases.size());
    out.windows = runner_.Run(bases, exponent, windows, out.samples);
    out.results = runner_.sim().PeekWideLanes(gen_.result, bases.size());
    return out;
  }

 private:
  BigUInt n_;
  MmmcNetlist gen_;
  rtl::CompiledNetlist compiled_;
  MmmcModExpRunner runner_;
};

std::vector<BigUInt> RandomBases(bignum::RandomBigUInt& rng, const BigUInt& n,
                                 std::size_t count) {
  std::vector<BigUInt> bases;
  for (std::size_t i = 0; i < count; ++i) bases.push_back(rng.Below(n));
  return bases;
}

/// (l, lanes)
class WindowedRun
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(WindowedRun, BitIdenticalToOneWindow) {
  const auto [l, lanes] = GetParam();
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(l);
  const std::vector<BigUInt> exponents = {
      BigUInt{1}, BigUInt{2}, BigUInt{3}, BigUInt::PowerOfTwo(63),
      rng.BalancedExactBits(64)};
  Rig reference(n, l);
  std::vector<std::unique_ptr<Rig>> windowed;
  const std::vector<std::size_t> window_counts = {2, 3, 4, 7};
  for (std::size_t i = 0; i < window_counts.size(); ++i) {
    windowed.push_back(std::make_unique<Rig>(n, l));
  }
  for (const BigUInt& e : exponents) {
    const std::size_t mmms = MmmcModExpRunner::MmmCount(e);
    // Two consecutive calls: the second one's sample 0 counts against the
    // state the first one left behind.
    for (int call = 0; call < 2; ++call) {
      const std::vector<BigUInt> bases = RandomBases(rng, n, lanes);
      const Rig::Output expected = reference.Run(bases, e, 1);
      ASSERT_EQ(expected.windows, 1u);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        // Post-processing returns a value in [0, N]: N when the base
        // shares a factor with a composite N and the power is 0 mod N.
        ASSERT_EQ(expected.results[lane] % n, BigUInt::ModExp(bases[lane], e, n))
            << "e=" << e.ToHex() << " lane " << lane;
      }
      for (std::size_t i = 0; i < window_counts.size(); ++i) {
        const std::size_t w = window_counts[i];
        const Rig::Output got = windowed[i]->Run(bases, e, w);
        const std::string where = "e=" + e.ToHex() + " windows=" +
                                  std::to_string(w) + " call " +
                                  std::to_string(call);
        EXPECT_EQ(got.windows, std::max<std::size_t>(1, std::min(w, mmms / 4)))
            << where;
        ASSERT_EQ(got.results, expected.results) << where;
        ASSERT_EQ(got.samples.size(), expected.samples.size()) << where;
        for (std::size_t s = 0; s < got.samples.size(); ++s) {
          ASSERT_EQ(got.samples[s], expected.samples[s])
              << where << " sample " << s / lanes << " lane " << s % lanes;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthsAndLanes, WindowedRun,
    ::testing::Combine(::testing::Values(8, 64, 65), ::testing::Values(1, 63, 64)),
    [](const auto& info) {
      return "l" + std::to_string(std::get<0>(info.param)) + "_lanes" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ModExpRunner, SinkSeesEverySampleOnce) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  const BigUInt e = rng.BalancedExactBits(24);
  Rig rig(n, 16);
  const std::vector<BigUInt> bases = RandomBases(rng, n, 5);
  std::vector<std::uint32_t> samples(MmmcModExpRunner::MmmCount(e) *
                                     rig.runner().SamplesPerMmm() * 5);
  std::mutex mu;
  std::vector<int> seen(samples.size() / 5, 0);
  const std::size_t windows = rig.runner().Run(
      bases, e, 4, samples, [&](std::size_t begin, std::size_t end) {
        const std::lock_guard lock(mu);
        for (std::size_t s = begin; s < end; ++s) ++seen[s];
      });
  EXPECT_EQ(windows, 4u);
  EXPECT_EQ(seen, std::vector<int>(seen.size(), 1));
}

TEST(ModExpRunner, FaultedSimulatorRunsOneWindow) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(16);
  const BigUInt e = rng.BalancedExactBits(32);
  Rig rig(n, 16);
  // A datapath register inverted on lane 1: that lane's result is wrong,
  // but the control path is untouched, so DONE still arrives.
  rig.runner().sim().InjectFault(rig.gen().t_probe[0], rtl::FaultType::kInvert,
                                 std::uint64_t{1} << 1);
  const std::vector<BigUInt> bases = RandomBases(rng, n, 4);
  const Rig::Output out = rig.Run(bases, e, 4);
  EXPECT_EQ(out.windows, 1u);
  EXPECT_EQ(out.results[0] % n, BigUInt::ModExp(bases[0], e, n));
}

TEST(ModExpRunner, RejectsBadArguments) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(8);
  Rig rig(n, 8);
  const std::vector<BigUInt> none;
  const std::vector<BigUInt> too_many(65, BigUInt{1});
  const std::vector<BigUInt> one = {BigUInt{1}};
  EXPECT_THROW(rig.runner().Run(none, BigUInt{3}, 1), std::invalid_argument);
  EXPECT_THROW(rig.runner().Run(too_many, BigUInt{3}, 1),
               std::invalid_argument);
  EXPECT_THROW(rig.runner().Run(one, BigUInt{0}, 1), std::invalid_argument);
  std::vector<std::uint32_t> short_buffer(3);
  EXPECT_THROW(rig.runner().Run(one, BigUInt{3}, 1, short_buffer),
               std::invalid_argument);
}

// A base >= N does not fit the operand window: one window would run it
// truncated to the (l+1)-bit bus, several would fail their boundary
// check.  Both reject it before anything is driven.
TEST(ModExpRunner, RejectsBasesNotBelowModulus) {
  const BigUInt n{40961};
  const BigUInt e{0xB5F3};
  Rig rig(n, 16);
  ASSERT_EQ(rig.runner().Windows(4, e), 4u);
  for (const BigUInt& bad : {BigUInt::PowerOfTwo(17) + BigUInt{12345}, n}) {
    const std::vector<BigUInt> bases = {BigUInt{3}, bad};
    for (const std::size_t windows : {1u, 4u}) {
      EXPECT_THROW(rig.runner().Run(bases, e, windows), std::invalid_argument)
          << "base " << bad.ToHex() << ", " << windows << " window(s)";
    }
  }
  const std::vector<BigUInt> reduced = {
      (BigUInt::PowerOfTwo(17) + BigUInt{12345}) % n};
  const Rig::Output out = rig.Run(reduced, e, 1);
  EXPECT_EQ(out.results[0] % n, BigUInt::ModExp(reduced[0], e, n));
}

}  // namespace
}  // namespace mont::core
