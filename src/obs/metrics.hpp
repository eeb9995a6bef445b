// metrics.hpp — the unified metrics registry behind every counter in the
// serving stack.
//
// Every service-layer counter lives here, behind typed handles with
// stable dotted names (jobs.submitted, sched.steals, server.ok,
// chaos.crt_corruptions, engine.cycles, ...).  The registry is the only
// counter API: tests, benches and the STATS verb all read a Snapshot().
//
//   * Counter — monotonic u64.  Writes go to one of a small number of
//     cache-line-padded relaxed-atomic stripes selected per thread, so
//     hot counters never bounce one line between workers; Value() and
//     Snapshot() merge the stripes by summing.
//   * Gauge — settable i64 (last-write-wins) with a RecordMax() CAS for
//     high-watermark style metrics (max_batch_claimed).
//   * Histogram — log-linear buckets (4 linear sub-buckets per power of
//     two, exact below 4), relaxed-atomic counts, an explicit overflow
//     bucket past 2^40, and min/max/sum tracking.  Percentile() answers
//     from bucket lower bounds — good enough for p50/p95/p99 ops lines.
//
// Handles are trivially copyable pointer wrappers; a default-constructed
// handle is a no-op sink (Add/Record do nothing, Value() is 0), so
// not-yet-bound instrumentation costs one branch.
//
// Conservation invariants (e.g. jobs.submitted == jobs.completed +
// jobs.cancelled on a drained service) are registered once by the owning
// component and checked against any snapshot with CheckInvariants() —
// the STATS wire verb and the tests share the same predicate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mont::obs {

namespace detail {

inline constexpr std::size_t kStripes = 16;  // power of two

struct alignas(64) Stripe {
  std::atomic<std::uint64_t> value{0};
};

/// Stable per-thread stripe index (assigned round-robin on first use) so
/// each worker thread keeps hitting its own cache line.
std::size_t ThreadStripe();

struct CounterCell {
  Stripe stripes[kStripes];

  void Add(std::uint64_t delta) {
    stripes[ThreadStripe()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const Stripe& stripe : stripes) {
      sum += stripe.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
};

struct GaugeCell {
  std::atomic<std::int64_t> value{0};
};

inline constexpr int kHistSubBuckets = 4;       // per power of two
inline constexpr int kHistMaxMajor = 40;        // values >= 2^40 overflow
inline constexpr std::size_t kHistBuckets =
    static_cast<std::size_t>(kHistMaxMajor - 1) * kHistSubBuckets;

struct HistogramCell {
  std::atomic<std::uint64_t> buckets[kHistBuckets]{};
  std::atomic<std::uint64_t> overflow{0};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};

  void Record(std::uint64_t value);
};

}  // namespace detail

/// Log-linear bucket geometry, shared by the cell and the snapshot (and
/// unit-tested directly): values 0..3 land in exact buckets, value v >= 4
/// lands in the bucket whose lower bound is the top three bits of v.
std::size_t HistogramBucketIndex(std::uint64_t value);
std::uint64_t HistogramBucketLowerBound(std::size_t index);

/// Monotonic counter handle.  Trivially copyable; default-constructed =
/// no-op sink.
class Counter {
 public:
  Counter() = default;
  void Add(std::uint64_t delta) {
    if (cell_ != nullptr) cell_->Add(delta);
  }
  void Increment() { Add(1); }
  std::uint64_t Value() const { return cell_ != nullptr ? cell_->Value() : 0; }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Settable gauge handle (i64, last-write-wins; RecordMax keeps a high
/// watermark).
class Gauge {
 public:
  Gauge() = default;
  void Set(std::int64_t value) {
    if (cell_ != nullptr) {
      cell_->value.store(value, std::memory_order_relaxed);
    }
  }
  void Add(std::int64_t delta) {
    if (cell_ != nullptr) {
      cell_->value.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  void RecordMax(std::int64_t candidate) {
    if (cell_ == nullptr) return;
    std::int64_t seen = cell_->value.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !cell_->value.compare_exchange_weak(seen, candidate,
                                               std::memory_order_relaxed)) {
    }
  }
  std::int64_t Value() const {
    return cell_ != nullptr ? cell_->value.load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Log-linear histogram handle.
class Histogram {
 public:
  Histogram() = default;
  void Record(std::uint64_t value) {
    if (cell_ != nullptr) cell_->Record(value);
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Point-in-time merge of one histogram's shards.
struct HistogramSnapshot {
  /// (bucket lower bound, count), non-empty buckets only, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  std::uint64_t overflow = 0;  ///< recordings >= 2^40
  std::uint64_t count = 0;     ///< total recordings (incl. overflow)
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  /// Lower bound of the bucket holding the p-quantile (p in [0,1]);
  /// `max` when the quantile falls in the overflow bucket.
  std::uint64_t Percentile(double p) const;
};

/// Point-in-time view of every metric in a registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value by name (0 when absent).
  std::uint64_t CounterValue(const std::string& name) const;

  /// One line per metric, sorted — for scorecards and stderr dumps.
  std::string RenderText() const;
  /// Flat JSON object (counters/gauges/histogram summaries) — the STATS
  /// wire verb's payload.
  std::string RenderJson() const;
};

/// Named-metric registry.  GetCounter/GetGauge/GetHistogram create on
/// first use and always return a handle to the same cell for the same
/// name, so every component naming "jobs.submitted" shares one counter.
/// Cells are node-stable: handles stay valid for the registry's lifetime.
/// All methods are thread-safe.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  Counter GetCounter(const std::string& name);
  Gauge GetGauge(const std::string& name);
  Histogram GetHistogram(const std::string& name);

  /// Registers the conservation law sum(lhs) == sum(rhs) under `name`.
  /// Re-registering the same name replaces the law (idempotent for the
  /// components that register in their constructors).
  void AddInvariant(const std::string& name, std::vector<std::string> lhs,
                    std::vector<std::string> rhs);

  /// Checks every registered invariant against `snapshot`; returns one
  /// human-readable violation line per broken law (empty = all hold).
  /// Only meaningful on quiescent snapshots (a drained service).
  std::vector<std::string> CheckInvariants(
      const MetricsSnapshot& snapshot) const;

  MetricsSnapshot Snapshot() const;

 private:
  struct Invariant {
    std::vector<std::string> lhs;
    std::vector<std::string> rhs;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
  std::map<std::string, Invariant> invariants_;
};

}  // namespace mont::obs
