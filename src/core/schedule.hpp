// schedule.hpp — the systolic schedule and cycle-count formulas of the paper,
// plus the service-level scheduling structures built on them.
//
// Cell j processes iteration i of Algorithm 2 at clock cycle 2i + j
// (0-based: i = 0..l+1, j = 0..l).  From this single fact every timing
// number in the paper follows; the formulas here are asserted against the
// cycle-accurate simulation in the tests.
//
// The second half of the file holds the data structures the batched
// exponentiation service (core/exp_service.hpp) schedules with:
//
//   * StealScheduler — the one scheduling core, in two modes.  The v2
//     mode (SchedulerKind::kStealing) keeps per-worker deques with
//     cross-worker work stealing, hold-for-pairing with an age-based
//     unpair timeout (a lone job on a hot key briefly waits for a
//     partner instead of issuing solo), and adaptive batch claims under
//     backlog.  The v1 mode (kSharedQueue), the A/B baseline, is one
//     shared FIFO with no holds, no steals and one group per claim: a
//     job pairs only with a same-length job still queued, so two
//     independent exponentiations can occupy the two channels of one
//     dual-channel array (two MMMs in 3l+5 cycles instead of 6l+8).
//     Every timing decision takes an explicit tick, so the whole policy
//     replays deterministically under a virtual clock.
//   * LruCache — the per-modulus engine cache: repeated traffic on one
//     key reuses the precomputed Montgomery context instead of paying
//     the R^2-mod-N precomputation again.
//
// Both are single-threaded building blocks; the service serialises
// access under its queue mutex.  They are kept here, std-only, so the
// scheduler policy is unit-testable without threads.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <deque>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mont::core {

/// Clock cycle (0-based, counted from the first compute cycle after the
/// operand-load edge) at which cell `j` processes iteration `i`.
constexpr std::uint64_t CellComputeCycle(std::uint64_t i, std::uint64_t j) {
  return 2 * i + j;
}

/// Total clock cycles for one Montgomery modular multiplication on the
/// MMMC, from the cycle START is sampled to the cycle DONE is asserted.
/// Paper §4.4: 3l + 4.
constexpr std::uint64_t MultiplyCycles(std::size_t l) {
  return 3 * static_cast<std::uint64_t>(l) + 4;
}

/// Pre-computation cycles of the modular exponentiator (paper §4.5):
/// 2(2(l+2)+1) + l = 5l + 10.
constexpr std::uint64_t PrecomputeCycles(std::size_t l) {
  return 5 * static_cast<std::uint64_t>(l) + 10;
}

/// Post-processing cycles (final Montgomery multiplication by 1): l + 2.
constexpr std::uint64_t PostprocessCycles(std::size_t l) {
  return static_cast<std::uint64_t>(l) + 2;
}

/// Exponentiation cycle count in the paper's accounting (§4.5): the
/// square-and-multiply chain performs `squarings + multiplications`
/// MMM operations of 3l+4 cycles each, plus pre- and post-processing.
constexpr std::uint64_t ExponentiationCycles(std::size_t l,
                                             std::uint64_t squarings,
                                             std::uint64_t multiplications) {
  return (squarings + multiplications) * MultiplyCycles(l) +
         PrecomputeCycles(l) + PostprocessCycles(l);
}

/// Paper Eq. (10) lower bound (exponent with exactly one set bit):
/// 3l^2 + 10l + 12.
constexpr std::uint64_t ExponentiationLowerBound(std::size_t l) {
  const auto ll = static_cast<std::uint64_t>(l);
  return 3 * ll * ll + 10 * ll + 12;
}

/// Paper Eq. (10) upper bound (all exponent bits set): 6l^2 + 14l + 12.
constexpr std::uint64_t ExponentiationUpperBound(std::size_t l) {
  const auto ll = static_cast<std::uint64_t>(l);
  return 6 * ll * ll + 14 * ll + 12;
}

/// The paper's "average" exponentiation model (balanced Hamming weight:
/// l squarings + l/2 multiplications).
constexpr std::uint64_t ExponentiationAverageCycles(std::size_t l) {
  const auto ll = static_cast<std::uint64_t>(l);
  return ExponentiationCycles(l, ll, ll / 2);
}

/// Cycles for one dual-channel pair issue (two MMMs in flight): channel B
/// finishes one cycle after channel A, so 3l + 5 for both products.
constexpr std::uint64_t PairedMultiplyCycles(std::size_t l) {
  return 3 * static_cast<std::uint64_t>(l) + 5;
}

// ---------------------------------------------------------------------------
// Clocks — every scheduler timing decision goes through one of these
// ---------------------------------------------------------------------------

/// Monotonic tick source.  The threaded service reads nanoseconds from
/// SteadyClock; tests and the DeterministicExecutor drive a ManualClock,
/// so every hold/unpair/steal decision replays exactly from a seed.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current tick.  Must never decrease.
  virtual std::uint64_t Now() const = 0;
};

/// Wall time: nanoseconds on std::chrono::steady_clock.
class SteadyClock final : public Clock {
 public:
  std::uint64_t Now() const override;
};

/// Hand-advanced virtual time for deterministic tests.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::uint64_t start = 0) : now_(start) {}
  std::uint64_t Now() const override { return now_; }
  void Advance(std::uint64_t ticks) { now_ += ticks; }
  /// Jumps to an absolute tick (must not move backwards).
  void Set(std::uint64_t tick);

 private:
  std::uint64_t now_;
};

// ---------------------------------------------------------------------------
// StealScheduler — the scheduling core
// ---------------------------------------------------------------------------

/// Which mode the scheduling core runs in.
enum class SchedulerKind {
  /// V1: one shared FIFO deque, no holds, no steals, one group per
  /// claim.  A job joins a same-key solo group still queued, else queues
  /// alone.  Kept as the A/B baseline bench_exp_service compares
  /// against.
  kSharedQueue,
  /// V2: per-worker deques + work stealing + hold-for-pairing with an
  /// age-based unpair timeout + adaptive batch claims.
  kStealing,
};

/// The scheduling core: per-worker deques + work stealing + adaptive
/// pairing (v2), or one shared deque (v1, SchedulerKind::kSharedQueue).
///
/// The v1 mode pairs only what happens to be queued together, so under
/// sparse arrivals (shallow queue) almost everything issues solo and the
/// dual-channel array runs at half throughput; and one shared queue
/// serialises every worker on one lock.  V2 fixes both:
///
///   * Formed issue groups (pairs and solos) are dispatched
///     to the least-loaded worker's deque; an idle worker whose own
///     deque is empty *steals* the oldest group from the first
///     non-empty victim deque in ring order, so one hot modulus — or
///     one slow group — can never idle the pool.
///   * A lone pairable job on a *hot* key (same-key inter-arrival EWMA
///     within `unpair_timeout`) is briefly held for a partner instead
///     of issuing solo; the age-based unpair timeout releases it solo
///     no later than `unpair_timeout` ticks after arrival, so
///     low-traffic moduli are paired opportunistically but never
///     starved.  Cold keys — and any job while the pool is otherwise
///     idle — dispatch immediately.
///   * Under backlog a worker claims an adaptive batch of up to
///     `max_batch` groups per acquisition (≈ ready groups / workers),
///     amortising queue-lock traffic without hurting light-load
///     latency.
///
/// The class is externally synchronised (the service holds its queue
/// mutex) and entirely tick-driven: Submit/Acquire take the current
/// tick, so the policy is a pure deterministic function of the call
/// sequence — the property tests replay it against a reference model.
class StealScheduler {
 public:
  struct Config {
    SchedulerKind kind = SchedulerKind::kStealing;
    std::size_t workers = 2;
    bool enable_pairing = true;
    /// Idle workers steal from other deques (ring order, oldest first).
    bool work_stealing = true;
    /// Ticks a lone hot-key job may be held waiting for a partner.
    std::uint64_t unpair_timeout = 200'000;
    /// Upper bound of one adaptive batch claim (lower bound is 1).
    std::size_t max_batch = 8;
    /// Metrics registry receiving the sched.* counters (null: none are
    /// kept).
    obs::Registry* registry = nullptr;
    /// Span tracer for hold/pair/steal/unpair decision events (ticks are
    /// the ones passed into Submit/Acquire, so DES replays trace
    /// identically).  Null disables emission.
    obs::Tracer* tracer = nullptr;
  };

  /// One acquired issue group: up to two job ids co-scheduled on one
  /// dual-channel array, plus how the scheduler arrived at the issue.
  struct Issue {
    std::array<std::uint64_t, 2> ids{};
    std::size_t count = 0;
    /// Taken from another worker's deque.
    bool stolen = false;
    /// Issued solo after being held for a partner that never came.
    bool unpaired_by_timeout = false;
    /// Submit tick of the group's oldest member.
    std::uint64_t arrival = 0;
  };

  /// Registers the sched.* counters: dispatched_groups (groups that
  /// entered a deque), pairs_formed (opportunistic pairs, all paths),
  /// holds, hold_pairs (holds that found a partner in time),
  /// unpair_timeouts (holds released solo), steals, batch_acquires
  /// (claims of > 1 group), cancelled (jobs removed by Cancel before
  /// acquire) and the max_batch_claimed gauge.
  explicit StealScheduler(Config config);

  /// Submits one job.  `pairable` marks a job whose backend can share a
  /// dual-channel array; non-pairable jobs always dispatch as solo
  /// groups.  A pairable job pairs with a held partner or an
  /// un-acquired solo group on the same key; a lone hot-key job is held
  /// until `now + unpair_timeout` (cold keys and an otherwise-idle pool
  /// dispatch immediately; the shared-queue mode never holds).
  void Submit(std::uint64_t id, std::uint64_t key, bool pairable,
              std::uint64_t now);

  /// Claims one group for `worker`: the oldest-arrival of {own deque
  /// front, oldest ready held job}; otherwise steals the front (oldest)
  /// group of the first non-empty deque in ring order from worker+1.
  /// In the shared-queue mode every worker's own deque is the one
  /// shared deque.
  std::optional<Issue> Acquire(std::size_t worker, std::uint64_t now);

  /// Claims an adaptive batch: up to clamp(ready/workers, 1, max_batch)
  /// groups via repeated Acquire (one group in the shared-queue mode).
  /// Appends to `out`, returns the count.
  std::size_t AcquireBatch(std::size_t worker, std::uint64_t now,
                           std::vector<Issue>* out);

  /// Cancels a queued job (deadline expiry): a held job is released from
  /// the hold buffer; a job parked in a deque group is tombstoned in
  /// place — deque slots are never erased, because open_solos_ holds
  /// pointers into the deques — and skipped when the group is popped.
  /// Returns false when the id is not queued (already acquired, finished,
  /// or unknown); jobs already in flight cannot be cancelled here.
  bool Cancel(std::uint64_t id);

  /// A group finished executing (enables the pool-busy hold predicate).
  void OnGroupDone();

  /// Earliest tick at which a currently-held job becomes claimable, if
  /// any job is held.  The threaded service bounds its waits with this.
  std::optional<std::uint64_t> NextHoldDeadline() const;

  /// True when nothing is queued (deques and hold buffer empty).
  bool Idle() const;
  /// Jobs queued but not yet acquired.
  std::size_t PendingJobs() const { return queued_jobs_; }
  /// Groups currently executing (Acquire'd, not yet OnGroupDone'd).
  std::size_t InFlightGroups() const { return in_flight_groups_; }
  std::size_t HeldJobs() const { return waiting_.size(); }

 private:
  /// A formed issue group parked in a worker deque.
  struct Group {
    std::array<std::uint64_t, 2> ids{};
    std::size_t count = 0;
    std::uint64_t key = 0;
    std::uint64_t arrival = 0;
    /// Still upgradeable: a later same-key submit may join this group
    /// while it sits un-acquired in a deque.
    bool open_solo = false;
    /// Per-slot tombstones set by Cancel; tombstoned slots are dropped
    /// when the group is popped (a fully-tombstoned group pops empty).
    std::array<bool, 2> cancelled{};
  };
  /// A lone hot-key job held back for a partner.
  struct Held {
    std::uint64_t id = 0;
    std::uint64_t key = 0;
    std::uint64_t arrival = 0;
    std::uint64_t ready_at = 0;  ///< arrival + unpair_timeout
  };
  struct KeyTraffic {
    std::uint64_t last_arrival = 0;
    std::uint64_t ewma_gap = 0;
    bool has_arrival = false;
    bool has_gap = false;
  };

  /// The deque `worker` claims from (deque 0 in the shared-queue mode).
  std::size_t Home(std::size_t worker) const {
    return worker % deques_.size();
  }
  void Dispatch(Group group);
  /// Pops the front group of `worker`'s deque, dropping tombstoned slots.
  /// Returns nullopt — and does not count an in-flight group — when every
  /// slot was cancelled (the shell is simply discarded).
  std::optional<Issue> PopGroup(std::size_t worker, bool stolen);
  /// True when holding a job could overlap useful work elsewhere.
  bool PoolBusy() const {
    return queued_jobs_ > 0 || in_flight_groups_ > 0;
  }
  /// Records a same-key arrival and returns true when the key is "hot"
  /// (expected partner gap within the unpair timeout).
  bool RecordArrivalAndClassify(std::uint64_t key, std::uint64_t now);

  Config config_;
  std::vector<std::deque<Group>> deques_;
  std::list<Held> waiting_;  // arrival order; every entry has a deadline
  /// key -> un-acquired open solo group (upgrade target), if any.
  std::unordered_map<std::uint64_t, Group*> open_solos_;
  std::unordered_map<std::uint64_t, KeyTraffic> traffic_;
  std::size_t rr_cursor_ = 0;  // round-robin tie-break for dispatch
  std::size_t queued_jobs_ = 0;
  std::size_t in_flight_groups_ = 0;
  struct {
    obs::Counter dispatched_groups;
    obs::Counter pairs_formed;
    obs::Counter holds;
    obs::Counter hold_pairs;
    obs::Counter unpair_timeouts;
    obs::Counter steals;
    obs::Counter batch_acquires;
    obs::Counter cancelled;
    obs::Gauge max_batch_claimed;
  } metrics_;
};

/// Least-recently-used cache, the policy behind the service's per-modulus
/// engine cache.  Get() refreshes recency; Put() evicts the coldest entry
/// once `capacity` is exceeded.  Hit/miss/eviction tallies are the
/// caller's (ExecutionCore keeps them as engine.cache_* counters).
template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Pointer to the cached value (refreshed to most-recent), or nullptr.
  /// The pointer is valid until the next Put().
  Value* Get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts (or replaces) `key`, evicting the least-recently-used entry
  /// if the cache would exceed capacity.  Returns whether it evicted.
  bool Put(const Key& key, Value value) {
    if (capacity_ == 0) return false;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return false;
    }
    const bool evict = order_.size() == capacity_;
    if (evict) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    return evict;
  }

  bool Contains(const Key& key) const { return index_.count(key) != 0; }
  std::size_t Size() const { return order_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::pair<Key, Value>> order_;  // most recent first
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator>
      index_;
};

}  // namespace mont::core
