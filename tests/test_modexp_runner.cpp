// The work-stealing §4.5 runner (core::MmmcModExpRunner), its split rule
// (core::MmmSplitter) and its word-level Algorithm 2 predictor.
//
// A pass spread over several threads must be bit-identical to the
// one-thread pass: every toggle sample (including each call's sample 0,
// which counts against whatever the previous call left in the circuit)
// and every result, over consecutive calls on one runner, whatever the
// order the ranges were stolen in.  The ranges run on worker threads, so
// this suite also runs under the TSan preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
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

TEST(Alg2Predictor, MatchesMultiplyAlg2OnRandomPairs) {
  for (const std::size_t l : {64u, 65u, 128u, 1024u}) {
    auto rng = test::TestRng(l);
    const BigUInt n = rng.OddExactBits(l);
    const BigUInt two_n = n << 1;
    const bignum::BitSerialMontgomery reference(n);
    const Alg2Predictor predictor(n);
    for (int i = 0; i < 10000; ++i) {
      const BigUInt x = rng.Below(two_n);
      const BigUInt y = rng.Below(two_n);
      ASSERT_EQ(predictor.Multiply(x, y), reference.MultiplyAlg2(x, y))
          << "l=" << l << " x=" << x.ToHex() << " y=" << y.ToHex();
    }
  }
}

// l + 2 = 64, 65, 66, 128, 129, 130: the last reduction digit is 62, 63,
// 64 (a full word), 62, 63 and 64 bits wide, on one or two more words.
TEST(Alg2Predictor, MatchesMultiplyAlg2AtWordBoundaries) {
  for (const std::size_t l : {62u, 63u, 64u, 126u, 127u, 128u}) {
    auto rng = test::TestRng(l);
    const std::vector<BigUInt> moduli = {
        BigUInt::PowerOfTwo(l) - 1, BigUInt::PowerOfTwo(l - 1) + 1,
        rng.OddExactBits(l)};
    for (const BigUInt& n : moduli) {
      const bignum::BitSerialMontgomery reference(n);
      const Alg2Predictor predictor(n);
      const std::vector<BigUInt> operands = {BigUInt{0}, BigUInt{1}, n - 1, n,
                                             (n << 1) - 1};
      for (const BigUInt& x : operands) {
        for (const BigUInt& y : operands) {
          ASSERT_EQ(predictor.Multiply(x, y), reference.MultiplyAlg2(x, y))
              << "l=" << l << " n=" << n.ToHex() << " x=" << x.ToHex()
              << " y=" << y.ToHex();
        }
      }
    }
  }
}

TEST(Alg2Predictor, WordApiMayWriteOverAnOperand) {
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(130);
  const Alg2Predictor predictor(n);
  const std::size_t s = predictor.Words();
  ASSERT_EQ(s, 3u);
  const BigUInt x = rng.Below(n << 1);
  std::vector<Alg2Predictor::Word> a(s);
  bignum::WordMontgomery::ToWords(x, a);
  predictor.Multiply(a.data(), a.data(), a.data());  // a <- T(a, a)
  EXPECT_EQ(bignum::WordMontgomery::FromWords(a), predictor.Multiply(x, x));
}

TEST(Alg2Predictor, RejectsOperandsOutsideTheWindow) {
  const BigUInt n{40961};
  const Alg2Predictor predictor(n);
  EXPECT_THROW(predictor.Multiply(n << 1, BigUInt{1}), std::invalid_argument);
  EXPECT_THROW(predictor.Multiply(BigUInt{1}, n << 1), std::invalid_argument);
}

TEST(Alg2Predictor, RejectsEvenAndTrivialModuli) {
  EXPECT_THROW(Alg2Predictor(BigUInt{10}), std::invalid_argument);
  EXPECT_THROW(Alg2Predictor(BigUInt{1}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MmmSplitter: the split rule without threads
// ---------------------------------------------------------------------------

using Range = MmmSplitter::Range;

std::vector<Range> RangesOf(const MmmSplitter& splitter) {
  return {splitter.Ranges().begin(), splitter.Ranges().end()};
}

/// Claims `count` MMMs of `range` and checks they come front to back.
void ClaimN(MmmSplitter& splitter, std::size_t range, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t expected = splitter.Ranges()[range].next;
    ASSERT_EQ(splitter.Claim(range), std::optional<std::size_t>(expected));
  }
}

TEST(MmmSplitter, EachThreadStartsOnItsOwnRange) {
  MmmSplitter splitter;
  splitter.Reset(98, 4);
  EXPECT_EQ(RangesOf(splitter),
            (std::vector<Range>{{0, 0, 24}, {24, 24, 49}, {49, 49, 73},
                                {73, 73, 98}}));
}

TEST(MmmSplitter, FirstToFinishTakesTheBackHalfOfTheLargestRemainder) {
  MmmSplitter splitter;
  splitter.Reset(96, 4);
  ClaimN(splitter, 0, 10);  // 14 left
  ClaimN(splitter, 1, 3);   // 21 left: the largest
  ClaimN(splitter, 2, 20);  // 4 left
  ClaimN(splitter, 3, 24);  // thread 3 runs dry first
  EXPECT_EQ(splitter.Claim(3), std::nullopt);
  // Range 1 keeps the front ceil(21/2) = 11 of [27, 48); the thief gets
  // the back 10.
  EXPECT_EQ(splitter.Steal(), std::optional<std::size_t>(4));
  EXPECT_EQ(splitter.Ranges()[1], (Range{24, 27, 38}));
  EXPECT_EQ(splitter.Ranges()[4], (Range{38, 38, 48}));
  // Next, range 0 (14 left) beats range 4 (10) and range 2 (4).
  EXPECT_EQ(splitter.Steal(), std::optional<std::size_t>(5));
  EXPECT_EQ(splitter.Ranges()[0], (Range{0, 10, 17}));
  EXPECT_EQ(splitter.Ranges()[5], (Range{17, 17, 24}));
}

TEST(MmmSplitter, NeverSplitsFewerThanFourMmms) {
  MmmSplitter splitter;
  splitter.Reset(16, 2);
  ClaimN(splitter, 0, 5);  // 3 left
  ClaimN(splitter, 1, 5);  // 3 left
  EXPECT_EQ(splitter.Steal(), std::nullopt);
  EXPECT_EQ(splitter.Ranges().size(), 2u);

  splitter.Reset(16, 2);
  ClaimN(splitter, 0, 4);  // exactly 4 left: split 2 + 2
  ClaimN(splitter, 1, 8);
  EXPECT_EQ(splitter.Steal(), std::optional<std::size_t>(2));
  EXPECT_EQ(splitter.Ranges()[0], (Range{0, 4, 6}));
  EXPECT_EQ(splitter.Ranges()[2], (Range{6, 6, 8}));
  EXPECT_EQ(splitter.Steal(), std::nullopt);  // 2, 0 and 2 left
}

TEST(MmmSplitter, OwnerStopsAtTheShortenedEnd) {
  MmmSplitter splitter;
  splitter.Reset(16, 2);
  ClaimN(splitter, 1, 8);
  const std::optional<std::size_t> stolen = splitter.Steal();  // before
  ASSERT_EQ(stolen, std::optional<std::size_t>(2));             // range 0
  ClaimN(splitter, 0, 4);                                       // starts
  EXPECT_EQ(splitter.Claim(0), std::nullopt);
  EXPECT_EQ(splitter.Claim(0), std::nullopt);
  ClaimN(splitter, 2, 4);
  EXPECT_EQ(splitter.Claim(2), std::nullopt);
  EXPECT_EQ(RangesOf(splitter),
            (std::vector<Range>{{0, 4, 4}, {8, 16, 16}, {4, 8, 8}}));
}

// Random interleavings of claims and steals: every MMM is claimed exactly
// once, by the range that holds it, and the finished ranges partition
// [0, m) with only range 0 starting at 0.
TEST(MmmSplitter, RandomSchedulesPartitionTheMmms) {
  bignum::Xoshiro256 rng(test::TestSeed());
  for (int round = 0; round < 200; ++round) {
    const std::size_t threads = 1 + rng.NextBelow(8);
    const std::size_t mmms = 4 * threads + rng.NextBelow(120);
    MmmSplitter splitter;
    splitter.Reset(mmms, threads);
    std::vector<std::optional<std::size_t>> owned(threads);
    for (std::size_t t = 0; t < threads; ++t) owned[t] = t;
    std::vector<int> claimed(mmms, 0);
    for (;;) {
      std::vector<std::size_t> live;
      for (std::size_t t = 0; t < threads; ++t) {
        if (owned[t]) live.push_back(t);
      }
      if (live.empty()) break;
      const std::size_t t = live[rng.NextBelow(live.size())];
      const std::optional<std::size_t> k = splitter.Claim(*owned[t]);
      if (k) {
        const Range& r = splitter.Ranges()[*owned[t]];
        ASSERT_TRUE(*k >= r.begin && *k < r.end);
        ++claimed[*k];
      } else {
        owned[t] = splitter.Steal();
      }
    }
    ASSERT_EQ(claimed, std::vector<int>(mmms, 1)) << "round " << round;
    std::vector<Range> ranges = RangesOf(splitter);
    std::sort(ranges.begin(), ranges.end(),
              [](const Range& a, const Range& b) { return a.begin < b.begin; });
    EXPECT_EQ(splitter.Ranges()[0].begin, 0u);
    std::size_t at = 0;
    for (const Range& r : ranges) {
      EXPECT_EQ(r.begin, at);
      EXPECT_EQ(r.next, r.end);
      EXPECT_GT(r.end, r.begin);
      at = r.end;
    }
    EXPECT_EQ(at, mmms);
  }
}

// ---------------------------------------------------------------------------
// MmmcModExpRunner
// ---------------------------------------------------------------------------

/// One runner over a freshly generated l-bit MMMC, counting toggles on
/// every net, as a capture does.  `on_make` (if set) runs on the thread
/// that builds each simulator, before it is built.
class Rig {
 public:
  Rig(const BigUInt& n, std::size_t l, std::function<void()> on_make = {})
      : n_(n),
        gen_(BuildMmmcNetlist(l)),
        compiled_(*gen_.netlist),
        on_make_(std::move(on_make)),
        runner_(gen_, n_, [this] {
          if (on_make_) on_make_();
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
             std::size_t windows,
             const MmmcModExpRunner::WindowSink& sink = {}) {
    Output out;
    out.samples.resize(MmmcModExpRunner::MmmCount(exponent) *
                       runner_.SamplesPerMmm() * bases.size());
    out.windows = runner_.Run(bases, exponent, windows, out.samples, sink);
    out.results = runner_.sim().PeekWideLanes(gen_.result, bases.size());
    return out;
  }

 private:
  BigUInt n_;
  MmmcNetlist gen_;
  rtl::CompiledNetlist compiled_;
  std::function<void()> on_make_;
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

// 20 consecutive 4-thread calls beside one busy competitor thread, so
// the threads run at uneven speeds and steal in varying orders; every
// sample and result must match the one-thread run.  On the first call
// the workers build their simulators only after the caller has finished
// range 0, so that call steals at least once whatever the host.
TEST(ModExpRunner, StealingBesideABusyThreadMatchesOneWindow) {
  auto rng = test::TestRng();
  const std::size_t l = 32;
  const BigUInt n = rng.OddExactBits(l);
  const BigUInt e = rng.BalancedExactBits(40);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable range0_done_cv;
  bool range0_done = false;
  Rig reference(n, l);
  Rig stealing(n, l, [&] {
    if (std::this_thread::get_id() == caller) return;
    // Bounded, so a failure on the caller's range cannot hang the test.
    std::unique_lock lock(mu);
    range0_done_cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return range0_done; });
  });
  std::size_t ranges = 0;
  const auto sink = [&](std::size_t begin, std::size_t) {
    const std::lock_guard lock(mu);
    ++ranges;
    if (begin == 0) range0_done = true;
    range0_done_cv.notify_all();
  };

  std::atomic<std::uint64_t> spins{0};
  // A jthread, so a failed ASSERT's early return still stops and joins it.
  std::jthread competitor([&](std::stop_token stop) {
    while (!stop.stop_requested()) {
      spins.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const std::size_t calls = 20;
  for (std::size_t call = 0; call < calls; ++call) {
    const std::vector<BigUInt> bases = RandomBases(rng, n, 64);
    const Rig::Output expected = reference.Run(bases, e, 1);
    const Rig::Output got = stealing.Run(bases, e, 4, sink);
    ASSERT_EQ(got.windows, 4u);
    ASSERT_EQ(got.results, expected.results) << "call " << call;
    ASSERT_EQ(got.samples, expected.samples) << "call " << call;
  }
  competitor.request_stop();
  competitor.join();
  EXPECT_GT(spins.load(), 0u);
  EXPECT_GT(ranges, calls * 4) << "no call stole a range";
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
