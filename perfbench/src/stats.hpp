// stats.hpp — the benchmark's statistics: percentiles under the
// "ten samples beyond" rule, open-loop lateness, span self time, and the
// latency ledger.  Pure functions over plain vectors, unit-tested in
// tests/stats_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it (so p99 needs 1000 samples).
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of `values` for `per_mille` in [0, 1000]
/// (500 = median, 990 = p99).  The input need not be sorted.  Returns 0
/// for an empty input.
double Percentile(std::vector<double> values, unsigned per_mille);

/// Samples that lie strictly beyond the nearest-rank `per_mille`
/// percentile of `count` samples.
std::size_t SamplesBeyond(std::size_t count, unsigned per_mille);

/// The percentile when at least kMinSamplesBeyond samples lie beyond it,
/// nullopt otherwise.
std::optional<double> SupportedPercentile(const std::vector<double>& values,
                                          unsigned per_mille);

/// The highest of p99, p90, p50 that the sample count supports, with the
/// per-mille it used (0 and 0 for an empty input).
struct TailPercentile {
  unsigned per_mille = 0;
  double value = 0;
};
TailPercentile HighestSupportedTail(const std::vector<double>& values);

/// Sender lateness: how long after it was due (could have been sent) a
/// request was actually sent; never negative, since an early send is on
/// time.  Both times in one unit.
double Lateness(double due, double sent);

/// Latency: completion minus due time.  Open-loop, the due time is the
/// scheduled send, so a stall of the sender is charged to every request it
/// delayed; closed-loop, it is the actual send.
double LatencyFromDue(double due, double done);

/// Event rate robust to stalls: the sorted event `times` are cut into
/// `stretches` runs of equal event count, and the median of their
/// rates (events per time unit) is returned.  0 for fewer than 2 events.
double MedianRate(std::vector<double> times, std::size_t stretches);

/// One recorded span.  Spans with the same (id, track) nest: a span's
/// parent is the innermost other span of that id and track enclosing it.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t track = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Self time of every span (same order as the input): its duration minus
/// the part of its interval covered by its direct children.
std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans);

/// The latency ledger: the end-to-end median against the sum of the
/// per-stage medians.  The remainder is what no stage accounts for —
/// queueing and thread hand-off.
struct LedgerStage {
  std::string name;
  double median = 0;
};
struct Ledger {
  double end_to_end = 0;
  double stage_sum = 0;
  double unaccounted = 0;           ///< end_to_end - stage_sum (may be < 0)
  double unaccounted_fraction = 0;  ///< unaccounted / end_to_end
};
Ledger BuildLedger(double end_to_end_median,
                   const std::vector<LedgerStage>& stages);

}  // namespace perfbench
