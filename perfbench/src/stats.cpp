#include "stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank of the per-mille percentile: ceil(count * pm / 1000),
/// at least 1.  Integer arithmetic, so p99 of 1000 samples is rank 990.
std::size_t NearestRank(std::size_t count, unsigned per_mille) {
  const std::size_t rank = (count * per_mille + 999) / 1000;
  return std::max<std::size_t>(rank, 1);
}

}  // namespace

double Percentile(std::vector<double> values, unsigned per_mille) {
  if (per_mille > 1000) throw std::invalid_argument("Percentile: per_mille > 1000");
  if (values.empty()) return 0;
  const std::size_t index = NearestRank(values.size(), per_mille) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

std::size_t SamplesBeyond(std::size_t count, unsigned per_mille) {
  if (count == 0) return 0;
  return count - NearestRank(count, per_mille);
}

std::optional<double> SupportedPercentile(const std::vector<double>& values,
                                          unsigned per_mille) {
  if (SamplesBeyond(values.size(), per_mille) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  return Percentile(values, per_mille);
}

TailPercentile HighestSupportedTail(const std::vector<double>& values) {
  for (const unsigned per_mille : {990u, 900u, 500u}) {
    if (const auto value = SupportedPercentile(values, per_mille)) {
      return {per_mille, *value};
    }
  }
  if (values.empty()) return {};
  return {500, Percentile(values, 500)};
}

double Lateness(double due, double sent) { return std::max(0.0, sent - due); }

double LatencyFromDue(double due, double done) { return done - due; }

double MedianRate(std::vector<double> times, std::size_t stretches) {
  if (times.size() < 2 || stretches == 0) return 0;
  std::sort(times.begin(), times.end());
  const std::size_t gaps = times.size() - 1;
  stretches = std::min(stretches, gaps);
  std::vector<double> rates;
  for (std::size_t k = 0; k < stretches; ++k) {
    const std::size_t first = k * gaps / stretches;
    const std::size_t last = (k + 1) * gaps / stretches;
    const double span = times[last] - times[first];
    if (span > 0) rates.push_back(static_cast<double>(last - first) / span);
  }
  return Percentile(rates, 500);
}

std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans) {
  // Visit spans per (id, track) in start order, longer first on ties, so a
  // parent always precedes the children it encloses; a stack of open
  // spans then yields each span's innermost enclosing one.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.id != y.id) return x.id < y.id;
    if (x.track != y.track) return x.track < y.track;
    if (x.start != y.start) return x.start < y.start;
    return x.end > y.end;
  });

  std::vector<std::uint64_t> self(spans.size());
  // Covered-by-children bookkeeping: the end of the children union so far
  // per open span (children of one parent arrive in start order).
  std::vector<std::uint64_t> covered_to(spans.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
    covered_to[i] = spans[i].start;
  }
  for (const std::size_t index : order) {
    const Span& span = spans[index];
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      const bool same_lane = top.id == span.id && top.track == span.track;
      if (same_lane && top.start <= span.start && span.end <= top.end) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      const std::size_t parent = stack.back();
      // Subtract only the part of this child not already covered by an
      // earlier (overlapping) sibling.
      const std::uint64_t from = std::max(span.start, covered_to[parent]);
      if (span.end > from) {
        self[parent] -= span.end - from;
        covered_to[parent] = span.end;
      }
    }
    stack.push_back(index);
  }
  return self;
}

Ledger BuildLedger(double end_to_end_median,
                   const std::vector<LedgerStage>& stages) {
  Ledger ledger;
  ledger.end_to_end = end_to_end_median;
  for (const LedgerStage& stage : stages) ledger.stage_sum += stage.median;
  ledger.unaccounted = end_to_end_median - ledger.stage_sum;
  ledger.unaccounted_fraction =
      end_to_end_median > 0 ? ledger.unaccounted / end_to_end_median : 0;
  return ledger;
}

}  // namespace perfbench
