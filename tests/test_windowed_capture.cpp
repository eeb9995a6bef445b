// GateLevelCapture::CaptureModExps splits each 64-lane pass into one
// window per CPU of the calling thread's affinity mask.  The traces must
// not depend on that: for every tracked-net selection, noise-free and
// noisy, a capture taken on all CPUs equals the one taken from a thread
// pinned to one CPU (one window).  The windows run on worker threads, so
// this suite also runs under the TSan preset.
#include <gtest/gtest.h>
#include <sched.h>

#include <span>
#include <thread>
#include <vector>

#include "sca/trace.hpp"
#include "testutil.hpp"

namespace mont::sca {
namespace {

using bignum::BigUInt;

/// Runs `fn` on a thread pinned to the first CPU of this thread's mask.
template <typename Fn>
void OnOneCpu(Fn fn) {
  std::thread pinned([&] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
    int first = 0;
    while (!CPU_ISSET(first, &mask)) ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    fn();
  });
  pinned.join();
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

class WindowedCapture : public ::testing::TestWithParam<int> {};

TEST_P(WindowedCapture, MatchesOneWindowCapture) {
  const int selection = GetParam() / 2;  // all nets, datapath, secret cone
  const bool noisy = GetParam() % 2 == 1;
  CaptureOptions options;
  options.datapath_only = selection == 1;
  options.secret_cone_only = selection == 2;
  if (noisy) {
    options.noise_sigma = 2.5;
    options.noise_seed = 0x5eed;
  }
  auto rng = test::TestRng();
  const BigUInt n = rng.OddExactBits(32);
  const BigUInt d = rng.BalancedExactBits(32);  // 48 MMMs: up to 12 windows
  std::vector<BigUInt> bases;
  for (int i = 0; i < 70; ++i) bases.push_back(rng.Below(n));  // passes of 64 and 6
  const std::span<const BigUInt> all(bases);
  // Two calls on each instance, so the second starts from the state the
  // first left behind.
  GateLevelCapture windowed(n, options);
  const TraceSet first = windowed.CaptureModExps(all, d);
  const TraceSet second = windowed.CaptureModExps(all.first(9), d);
  TraceSet expected_first, expected_second;
  OnOneCpu([&] {
    GateLevelCapture one_window(n, options);
    expected_first = one_window.CaptureModExps(all, d);
    expected_second = one_window.CaptureModExps(all.first(9), d);
  });
  ExpectSameTraces(first, expected_first);
  ExpectSameTraces(second, expected_second);
}

INSTANTIATE_TEST_SUITE_P(SelectionsAndNoise, WindowedCapture,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace mont::sca
