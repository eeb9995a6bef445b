// Unit tests of perfbench's statistics code (src/stats.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../src/stats.hpp"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(n - i);
  return values;  // n, n-1, ..., 1 (unsorted on purpose)
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  const std::vector<double> values = Ramp(100);
  EXPECT_EQ(Percentile(values, 500), 50.0);
  EXPECT_EQ(Percentile(values, 990), 99.0);
  EXPECT_EQ(Percentile(values, 1000), 100.0);
  EXPECT_EQ(Percentile(values, 0), 1.0);
  EXPECT_EQ(Percentile({}, 500), 0.0);
}

TEST(Percentile, P99NeedsTenSamplesBeyondSoAtLeast1000) {
  EXPECT_EQ(SamplesBeyond(1000, 990), 10u);
  EXPECT_EQ(SamplesBeyond(999, 990), 9u);
  EXPECT_FALSE(SupportedPercentile(Ramp(999), 990).has_value());
  const auto p99 = SupportedPercentile(Ramp(1000), 990);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);
  // p90 needs 100 samples.
  EXPECT_FALSE(SupportedPercentile(Ramp(99), 900).has_value());
  EXPECT_TRUE(SupportedPercentile(Ramp(100), 900).has_value());
}

TEST(Percentile, HighestSupportedTailFallsBack) {
  EXPECT_EQ(HighestSupportedTail(Ramp(5000)).per_mille, 990u);
  EXPECT_EQ(HighestSupportedTail(Ramp(500)).per_mille, 900u);
  EXPECT_EQ(HighestSupportedTail(Ramp(30)).per_mille, 500u);
  EXPECT_EQ(HighestSupportedTail(Ramp(30)).value, 15.0);
  EXPECT_EQ(HighestSupportedTail({}).per_mille, 0u);
}

TEST(Lateness, MeasuredFromDueTimeAndNeverNegative) {
  EXPECT_EQ(Lateness(0, 0), 0);
  EXPECT_EQ(Lateness(10, 12), 2);
  EXPECT_EQ(Lateness(20, 19), 0);  // early is on time
  EXPECT_EQ(Lateness(30, 45), 15);
  // A stall that delays later sends is charged to each of them: latency
  // runs from the due time, not from the late send.
  EXPECT_EQ(LatencyFromDue(20, 50), 30);
  EXPECT_EQ(LatencyFromDue(30, 60), 30);
}

TEST(MedianRate, AStallInOneStretchDoesNotMoveIt) {
  std::vector<double> times;
  for (int i = 0; i <= 100; ++i) times.push_back(0.01 * i);  // 100 events/s
  EXPECT_NEAR(MedianRate(times, 10), 100, 1e-6);
  // A 1-unit stall inside one of the ten stretches.
  for (int i = 55; i <= 100; ++i) times[i] += 1.0;
  EXPECT_NEAR(MedianRate(times, 10), 100, 1e-6);
  // Order does not matter; too few events give 0.
  std::reverse(times.begin(), times.end());
  EXPECT_NEAR(MedianRate(times, 10), 100, 1e-6);
  EXPECT_EQ(MedianRate({1.0}, 10), 0);
}

TEST(SelfTimes, NestedChildrenAreSubtractedOnce) {
  // request [0,100) > emsa [10,20), modexp [20,70) > montmul [30,40)
  const std::vector<Span> spans = {
      {"request", 7, 1, 0, 100},
      {"modexp", 7, 1, 20, 70},
      {"montmul", 7, 1, 30, 40},
      {"emsa", 7, 1, 10, 20},
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 40u);  // 100 - (10 + 50); the grandchild is not subtracted twice
  EXPECT_EQ(self[1], 40u);  // 50 - 10
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 10u);
}

TEST(SelfTimes, OtherIdsAndTracksAreNotChildren) {
  const std::vector<Span> spans = {
      {"request", 1, 0, 0, 100},
      {"other-request", 2, 0, 10, 20},  // different id
      {"other-thread", 1, 5, 30, 40},   // different track
      {"child", 1, 0, 50, 60},
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 90u);
  EXPECT_EQ(self[1], 10u);
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 10u);
}

TEST(SelfTimes, OverlappingSiblingsCountTheirUnion) {
  const std::vector<Span> spans = {
      {"parent", 3, 0, 0, 100},
      {"a", 3, 0, 10, 50},
      {"b", 3, 0, 40, 60},  // overlaps a by 10
  };
  EXPECT_EQ(SelfTimes(spans)[0], 50u);  // 100 - |[10,60)|
}

TEST(Ledger, UnaccountedIsEndToEndMinusStageSum) {
  const Ledger ledger = BuildLedger(
      10.0, {{"wire", 0.5}, {"emsa", 1.0}, {"modexp", 6.0}, {"recombine", 0.5}});
  EXPECT_DOUBLE_EQ(ledger.stage_sum, 8.0);
  EXPECT_DOUBLE_EQ(ledger.unaccounted, 2.0);
  EXPECT_DOUBLE_EQ(ledger.unaccounted_fraction, 0.2);
  // Stages that run in parallel can sum past the end-to-end median.
  EXPECT_DOUBLE_EQ(BuildLedger(4.0, {{"p", 3.0}, {"q", 3.0}}).unaccounted_fraction,
                   -0.5);
  EXPECT_DOUBLE_EQ(BuildLedger(0.0, {{"x", 1.0}}).unaccounted_fraction, 0.0);
}

}  // namespace
}  // namespace perfbench
