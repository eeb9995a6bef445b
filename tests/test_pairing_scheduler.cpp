// Tests for the service scheduling structures in isolation (no threads):
// the scheduling core in both modes — the v1 pairing queue's
// order / pairing / starvation semantics and the v2 steal/hold/batch
// policy — and the LruCache eviction policy behind the per-modulus
// engine cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "core/exp_service.hpp"
#include "core/schedule.hpp"
#include "obs/metrics.hpp"
#include "testutil.hpp"

namespace mont::core {
namespace {

// The v1 pairing queue — StealScheduler's shared-queue mode: one FIFO
// every worker claims from, pairing only what is queued together.
StealScheduler::Config SharedQueueConfig(bool enable_pairing = true) {
  StealScheduler::Config config;
  config.kind = SchedulerKind::kSharedQueue;
  config.workers = 2;
  config.enable_pairing = enable_pairing;
  config.unpair_timeout = 100;
  return config;
}

TEST(PairingQueue, FifoWithoutPairing) {
  StealScheduler queue(SharedQueueConfig(/*enable_pairing=*/false));
  for (std::uint64_t id = 1; id <= 5; ++id) {
    queue.Submit(id, /*key=*/7, /*pairable=*/true, /*now=*/id);
  }
  for (std::uint64_t id = 1; id <= 5; ++id) {
    // Alternate claimants: both workers drain the one shared FIFO.
    const auto issue = queue.Acquire(id % 2, 10);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->count, 1u);
    EXPECT_EQ(issue->ids[0], id);
    EXPECT_FALSE(issue->stolen);
  }
  EXPECT_FALSE(queue.Acquire(0, 10).has_value());
}

TEST(PairingQueue, PairsOldestCompatibleEntries) {
  StealScheduler queue(SharedQueueConfig());
  // keys: A B A B  ->  (1,3) then (2,4)
  queue.Submit(1, 64, true, 0);
  queue.Submit(2, 32, true, 1);
  queue.Submit(3, 64, true, 2);
  queue.Submit(4, 32, true, 3);
  auto first = queue.Acquire(0, 3);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->count, 2u);
  EXPECT_EQ(first->ids[0], 1u);
  EXPECT_EQ(first->ids[1], 3u);
  auto second = queue.Acquire(1, 3);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->count, 2u);
  EXPECT_EQ(second->ids[0], 2u);
  EXPECT_EQ(second->ids[1], 4u);
  EXPECT_TRUE(queue.Idle());
}

TEST(PairingQueue, OddJobOutAndLoneKeysDoNotStarve) {
  StealScheduler queue(SharedQueueConfig());
  // Three same-key entries, arriving fast on a busy pool (a hot key to
  // the v2 mode): none is held, and one issues alone after the pair.
  queue.Submit(1, 8, true, 0);
  queue.Submit(2, 8, true, 1);
  queue.Submit(3, 8, true, 2);
  EXPECT_EQ(queue.HeldJobs(), 0u);
  auto pair = queue.Acquire(0, 2);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->count, 2u);
  auto leftover = queue.Acquire(0, 2);
  ASSERT_TRUE(leftover.has_value());
  EXPECT_EQ(leftover->count, 1u);
  EXPECT_EQ(leftover->ids[0], 3u);
  // Entries with unmatched keys each issue alone, in FIFO order.
  queue.Submit(4, 10, true, 3);
  queue.Submit(5, 11, true, 4);
  EXPECT_EQ(queue.Acquire(1, 4)->ids[0], 4u);
  EXPECT_EQ(queue.Acquire(1, 4)->ids[0], 5u);
}

TEST(PairingQueue, BondedEntriesOnlyPairWithTheirPartner) {
  StealScheduler queue(SharedQueueConfig());
  queue.Submit(1, 64, true, 0);  // opportunistic
  queue.SubmitBonded(2, 4, 1);   // bonded halves
  queue.Submit(3, 64, true, 2);  // opportunistic
  auto first = queue.Acquire(0, 2);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->ids[0], 1u);
  EXPECT_EQ(first->ids[1], 3u);  // skipped the bonded group in between
  EXPECT_FALSE(first->bonded);
  auto second = queue.Acquire(0, 2);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->bonded);
  EXPECT_EQ(second->ids[0], 2u);
  EXPECT_EQ(second->ids[1], 4u);
}

TEST(PairingQueue, BondedAndOpportunisticNeverMixOnSameKey) {
  StealScheduler queue(SharedQueueConfig());
  queue.SubmitBonded(1, 2, 0);
  queue.Submit(3, 64, true, 1);
  auto first = queue.Acquire(0, 1);
  ASSERT_TRUE(first.has_value());
  // The bonded group cannot claim the plain entry, nor the plain entry
  // join the bond.
  EXPECT_TRUE(first->bonded);
  EXPECT_EQ(first->count, 2u);
  EXPECT_EQ(first->ids[0], 1u);
  EXPECT_EQ(first->ids[1], 2u);
  auto second = queue.Acquire(0, 1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->count, 1u);
  EXPECT_EQ(second->ids[0], 3u);
}

// Property check: every id issues exactly once, pairs always share a key,
// and the first slot of successive issues preserves FIFO order.
TEST(PairingQueue, RandomizedConservationAndOrder) {
  auto rng = test::TestRng();
  StealScheduler queue(SharedQueueConfig());
  constexpr std::uint64_t kEntries = 500;
  std::map<std::uint64_t, std::uint64_t> key_of;
  for (std::uint64_t id = 1; id <= kEntries; ++id) {
    const std::uint64_t key = rng.Engine().NextBelow(5);
    key_of[id] = key;
    queue.Submit(id, key, true, id);
  }
  std::set<std::uint64_t> seen;
  std::uint64_t last_front = 0;
  std::size_t worker = 0;
  while (auto issue = queue.Acquire(worker, kEntries)) {
    worker = 1 - worker;
    EXPECT_GT(issue->ids[0], last_front) << "FIFO order of issue fronts";
    last_front = issue->ids[0];
    for (std::size_t i = 0; i < issue->count; ++i) {
      EXPECT_TRUE(seen.insert(issue->ids[i]).second)
          << "id issued twice: " << issue->ids[i];
    }
    if (issue->count == 2) {
      EXPECT_EQ(key_of[issue->ids[0]], key_of[issue->ids[1]]);
    }
  }
  EXPECT_EQ(seen.size(), kEntries);
}

// A cancelled slot of an opportunistic pair is tombstoned in place: the
// surviving partner issues solo and the pair never reopens to a later
// arrival; a cancelled open solo stops being a join target.
TEST(PairingQueue, CancelledOpportunisticSlotIsTombstoned) {
  StealScheduler queue(SharedQueueConfig());
  queue.Submit(1, 64, true, 0);
  queue.Submit(2, 64, true, 1);  // joins 1: pair (1,2)
  ASSERT_TRUE(queue.Cancel(2));
  EXPECT_FALSE(queue.Cancel(2));
  queue.Submit(3, 64, true, 2);  // cannot take 2's slot
  auto survivor = queue.Acquire(0, 2);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->count, 1u);
  EXPECT_EQ(survivor->ids[0], 1u);
  EXPECT_FALSE(survivor->bonded);
  // 3 sits alone as an open solo; cancelling it closes it, so 4 opens a
  // group of its own and the tombstoned shell is skipped on acquire.
  ASSERT_TRUE(queue.Cancel(3));
  queue.Submit(4, 64, true, 3);
  auto next = queue.Acquire(1, 3);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->count, 1u);
  EXPECT_EQ(next->ids[0], 4u);
  EXPECT_FALSE(queue.Acquire(0, 3).has_value());
  EXPECT_TRUE(queue.Idle());
}

// ---------------------------------------------------------------------------
// Clock sources
// ---------------------------------------------------------------------------

TEST(ClockSource, ManualClockAdvancesAndRejectsBackwardsSet) {
  ManualClock clock(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150u);
  clock.Set(150);  // no-op jump to the same tick is fine
  clock.Set(400);
  EXPECT_EQ(clock.Now(), 400u);
  EXPECT_THROW(clock.Set(399), std::invalid_argument);
}

TEST(ClockSource, SteadyClockIsMonotone) {
  SteadyClock clock;
  const std::uint64_t a = clock.Now();
  const std::uint64_t b = clock.Now();
  EXPECT_LE(a, b);
}

// ---------------------------------------------------------------------------
// StealScheduler (v2: per-worker deques, stealing, hold/unpair, batching)
// ---------------------------------------------------------------------------

StealScheduler::Config TwoWorkerConfig(obs::Registry* registry = nullptr) {
  StealScheduler::Config config;
  config.workers = 2;
  config.unpair_timeout = 100;
  config.registry = registry;
  return config;
}

TEST(StealScheduler, SoloSubmitOnIdlePoolDispatchesImmediately) {
  StealScheduler sched(TwoWorkerConfig());
  // Even a key with hot traffic must not be held while the pool has
  // nothing else to do — holding then would only add latency.
  sched.Submit(1, 7, /*pairable=*/true, /*now=*/0);
  EXPECT_EQ(sched.HeldJobs(), 0u);
  auto issue = sched.Acquire(0, 0);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->count, 1u);
  EXPECT_EQ(issue->ids[0], 1u);
  sched.OnGroupDone();
  EXPECT_TRUE(sched.Idle());
}

TEST(StealScheduler, OpenSoloGroupUpgradesToPairInPlace) {
  obs::Registry registry;
  StealScheduler sched(TwoWorkerConfig(&registry));
  sched.Submit(1, 7, true, 0);
  sched.Submit(2, 7, true, 10);  // joins id 1's un-acquired solo group
  auto issue = sched.Acquire(0, 10);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->count, 2u);
  EXPECT_EQ(issue->ids[0], 1u);
  EXPECT_EQ(issue->ids[1], 2u);
  EXPECT_EQ(registry.Snapshot().CounterValue("sched.pairs_formed"), 1u);
  sched.OnGroupDone();
  EXPECT_TRUE(sched.Idle());
}

TEST(StealScheduler, HotKeyHoldsForPartnerWhilePoolBusy) {
  obs::Registry registry;
  StealScheduler sched(TwoWorkerConfig(&registry));
  // Establish a hot gap on key 7, then keep the pool busy so the next
  // lone arrival is worth holding.
  sched.Submit(1, 7, true, 0);
  sched.Submit(2, 7, true, 10);  // gap 10 << timeout 100: key is hot
  auto pair = sched.Acquire(0, 10);
  ASSERT_TRUE(pair.has_value());  // in flight: pool is busy
  sched.Submit(3, 7, true, 20);
  EXPECT_EQ(sched.HeldJobs(), 1u);
  EXPECT_EQ(registry.Snapshot().CounterValue("sched.holds"), 1u);
  ASSERT_TRUE(sched.NextHoldDeadline().has_value());
  EXPECT_EQ(*sched.NextHoldDeadline(), 120u);
  // Held jobs are invisible to Acquire before their deadline.
  EXPECT_FALSE(sched.Acquire(1, 30).has_value());
  // The partner arrives in time: hold pays off.
  sched.Submit(4, 7, true, 40);
  EXPECT_EQ(sched.HeldJobs(), 0u);
  auto held_pair = sched.Acquire(1, 40);
  ASSERT_TRUE(held_pair.has_value());
  EXPECT_EQ(held_pair->count, 2u);
  EXPECT_EQ(held_pair->ids[0], 3u);
  EXPECT_EQ(held_pair->ids[1], 4u);
  EXPECT_EQ(registry.Snapshot().CounterValue("sched.hold_pairs"), 1u);
  sched.OnGroupDone();
  sched.OnGroupDone();
  EXPECT_TRUE(sched.Idle());
}

TEST(StealScheduler, AgeTimeoutReleasesHeldJobSolo) {
  obs::Registry registry;
  StealScheduler sched(TwoWorkerConfig(&registry));
  sched.Submit(1, 7, true, 0);
  sched.Submit(2, 7, true, 10);
  auto pair = sched.Acquire(0, 10);
  ASSERT_TRUE(pair.has_value());
  sched.Submit(3, 7, true, 20);
  ASSERT_EQ(sched.HeldJobs(), 1u);
  // Deadline is 120; at 119 the job is still held, at 120 it issues
  // solo and is flagged as unpaired by the timeout.
  EXPECT_FALSE(sched.Acquire(1, 119).has_value());
  auto solo = sched.Acquire(1, 120);
  ASSERT_TRUE(solo.has_value());
  EXPECT_EQ(solo->count, 1u);
  EXPECT_EQ(solo->ids[0], 3u);
  EXPECT_TRUE(solo->unpaired_by_timeout);
  EXPECT_EQ(registry.Snapshot().CounterValue("sched.unpair_timeouts"), 1u);
  sched.OnGroupDone();
  sched.OnGroupDone();
  EXPECT_TRUE(sched.Idle());
}

TEST(StealScheduler, StealTakesVictimsOldestGroupInRingOrder) {
  obs::Registry registry;
  StealScheduler::Config config = TwoWorkerConfig(&registry);
  config.workers = 3;
  StealScheduler sched(config);
  // Distinct non-pairable jobs spread across deques (least-loaded with
  // round-robin tie-break: ids 1,2,3 land on workers 0,1,2).
  sched.Submit(1, 100, /*pairable=*/false, 0);
  sched.Submit(2, 101, /*pairable=*/false, 1);
  sched.Submit(3, 102, /*pairable=*/false, 2);
  // Worker 1 drains its own deque first...
  auto own = sched.Acquire(1, 10);
  ASSERT_TRUE(own.has_value());
  EXPECT_FALSE(own->stolen);
  EXPECT_EQ(own->ids[0], 2u);
  // ...then steals in ring order from worker 2 before worker 0.
  auto stolen = sched.Acquire(1, 10);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_TRUE(stolen->stolen);
  EXPECT_EQ(stolen->ids[0], 3u);
  EXPECT_EQ(registry.Snapshot().CounterValue("sched.steals"), 1u);
  // With stealing disabled an empty own deque means no work.
  StealScheduler::Config no_steal = config;
  no_steal.work_stealing = false;
  StealScheduler fixed(no_steal);
  fixed.Submit(1, 100, false, 0);
  EXPECT_FALSE(fixed.Acquire(2, 0).has_value());
}

TEST(StealScheduler, BondedPairsNeverSplitAndSkipHolds) {
  StealScheduler sched(TwoWorkerConfig());
  sched.SubmitBonded(1, 2, 0);
  auto issue = sched.Acquire(0, 0);
  ASSERT_TRUE(issue.has_value());
  EXPECT_TRUE(issue->bonded);
  EXPECT_EQ(issue->count, 2u);
  EXPECT_EQ(issue->ids[0], 1u);
  EXPECT_EQ(issue->ids[1], 2u);
  sched.OnGroupDone();
  // With pairing disabled bonded submits degrade to two solo groups.
  StealScheduler::Config solo_config = TwoWorkerConfig();
  solo_config.enable_pairing = false;
  StealScheduler solo(solo_config);
  solo.SubmitBonded(1, 2, 0);
  std::size_t jobs = 0;
  while (auto got = solo.Acquire(0, 0)) {
    EXPECT_EQ(got->count, 1u);
    EXPECT_FALSE(got->bonded);
    jobs += got->count;
    solo.OnGroupDone();
  }
  EXPECT_EQ(jobs, 2u);
}

TEST(StealScheduler, AdaptiveBatchScalesWithBacklogAndCapsAtMaxBatch) {
  obs::Registry registry;
  StealScheduler::Config config = TwoWorkerConfig(&registry);
  config.max_batch = 4;
  StealScheduler sched(config);
  // Backlog of 12 non-pairable groups over 2 workers: target is
  // clamp(12 / 2, 1, 4) = 4.
  for (std::uint64_t id = 1; id <= 12; ++id) {
    sched.Submit(id, 200 + id, /*pairable=*/false, 0);
  }
  std::vector<StealScheduler::Issue> issues;
  EXPECT_EQ(sched.AcquireBatch(0, 0, &issues), 4u);
  EXPECT_EQ(issues.size(), 4u);
  const obs::MetricsSnapshot metrics = registry.Snapshot();
  EXPECT_EQ(metrics.CounterValue("sched.batch_acquires"), 1u);
  EXPECT_EQ(metrics.gauges.at("sched.max_batch_claimed"), 4);
  // A near-empty pool claims exactly one (never zero while work exists).
  for (int i = 0; i < 4; ++i) sched.OnGroupDone();
  issues.clear();
  while (sched.AcquireBatch(1, 0, &issues) != 0) {
    for (std::size_t i = 0; i < issues.size(); ++i) sched.OnGroupDone();
    issues.clear();
  }
  EXPECT_TRUE(sched.Idle());
  StealScheduler light(config);
  light.Submit(1, 300, false, 0);
  issues.clear();
  EXPECT_EQ(light.AcquireBatch(0, 0, &issues), 1u);
}

// Model check: a seeded stream of submits, bonded submits, acquires,
// completions, and clock advances, validated against a brute-force
// reference model of what may legally issue.  Eight rounds run the v2
// mode, eight the shared-queue mode.
TEST(StealScheduler, RandomizedModelConservationAndNoStarvation) {
  auto rng = test::TestRng();
  for (std::uint64_t round = 0; round < 16; ++round) {
    obs::Registry registry;
    StealScheduler::Config config;
    config.kind =
        round < 8 ? SchedulerKind::kStealing : SchedulerKind::kSharedQueue;
    config.workers = 1 + rng.Engine().NextBelow(4);
    config.unpair_timeout = 50 + rng.Engine().NextBelow(200);
    config.max_batch = 1 + rng.Engine().NextBelow(8);
    config.work_stealing = rng.Engine().NextBelow(4) != 0;
    config.registry = &registry;
    StealScheduler sched(config);
    const bool shared = config.kind == SchedulerKind::kSharedQueue;

    std::map<std::uint64_t, std::uint64_t> key_of;       // reference model
    std::map<std::uint64_t, std::uint64_t> bond_partner;
    std::set<std::uint64_t> outstanding;                  // submitted, unissued
    std::set<std::uint64_t> issued;
    std::uint64_t next_id = 1;
    std::uint64_t now = 0;
    std::size_t in_flight = 0;
    std::uint64_t cancelled_total = 0;

    const auto check_issue = [&](const StealScheduler::Issue& issue) {
      ASSERT_GE(issue.count, 1u);
      ASSERT_LE(issue.count, 2u);
      // The shared queue never holds a job and has nothing to steal.
      ASSERT_FALSE(shared && (issue.stolen || issue.unpaired_by_timeout));
      for (std::size_t i = 0; i < issue.count; ++i) {
        const std::uint64_t id = issue.ids[i];
        ASSERT_TRUE(outstanding.count(id)) << "issued unknown id " << id;
        outstanding.erase(id);
        ASSERT_TRUE(issued.insert(id).second) << "id issued twice: " << id;
      }
      if (issue.bonded) {
        ASSERT_EQ(issue.count, 2u);
        ASSERT_EQ(bond_partner.at(issue.ids[0]), issue.ids[1]);
      } else if (issue.count == 2) {
        ASSERT_EQ(key_of.at(issue.ids[0]), key_of.at(issue.ids[1]))
            << "opportunistic pair across keys";
      }
      ++in_flight;
    };

    for (int step = 0; step < 600; ++step) {
      switch (rng.Engine().NextBelow(7)) {
        case 0:
        case 1: {  // pairable submit on a small key space
          const std::uint64_t key = rng.Engine().NextBelow(3);
          key_of[next_id] = key;
          outstanding.insert(next_id);
          sched.Submit(next_id, key, true, now);
          ++next_id;
          break;
        }
        case 2: {  // non-pairable submit
          const std::uint64_t key = 50 + rng.Engine().NextBelow(3);
          key_of[next_id] = key;
          outstanding.insert(next_id);
          sched.Submit(next_id, key, false, now);
          ++next_id;
          break;
        }
        case 3: {  // bonded submit
          key_of[next_id] = 90;
          key_of[next_id + 1] = 91;
          bond_partner[next_id] = next_id + 1;
          outstanding.insert(next_id);
          outstanding.insert(next_id + 1);
          sched.SubmitBonded(next_id, next_id + 1, now);
          next_id += 2;
          break;
        }
        case 4: {  // acquire from a random worker
          const std::size_t worker = rng.Engine().NextBelow(config.workers);
          if (auto issue = sched.Acquire(worker, now)) check_issue(*issue);
          break;
        }
        case 5: {  // deadline cancellation of a random queued job
          if (outstanding.empty()) {
            // Cancelling an unknown / already-issued id must be a no-op.
            ASSERT_FALSE(sched.Cancel(next_id + 1000));
            break;
          }
          auto it = outstanding.begin();
          std::advance(it, rng.Engine().NextBelow(outstanding.size()));
          const std::uint64_t id = *it;
          ASSERT_TRUE(sched.Cancel(id)) << "queued id not cancellable: " << id;
          ASSERT_FALSE(sched.Cancel(id)) << "id cancelled twice: " << id;
          outstanding.erase(it);
          ++cancelled_total;
          break;
        }
        default: {  // time passes; maybe retire an in-flight group
          now += 1 + rng.Engine().NextBelow(40);
          if (in_flight > 0 && rng.Engine().NextBelow(2) == 0) {
            sched.OnGroupDone();
            --in_flight;
          }
          break;
        }
      }
      // Conservation invariant: the scheduler's queued count always
      // matches the reference model's outstanding set.
      ASSERT_EQ(sched.PendingJobs(), outstanding.size());
    }

    // Drain: advance past every hold deadline and acquire round-robin.
    // No-starvation means every submitted id eventually issues.
    now += config.unpair_timeout + 1;
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t worker = 0; worker < config.workers; ++worker) {
        while (auto issue = sched.Acquire(worker, now)) {
          check_issue(*issue);
          progress = true;
        }
      }
      now += config.unpair_timeout + 1;
      if (!sched.Idle()) progress = true;
    }
    ASSERT_TRUE(outstanding.empty()) << "starved jobs remain";
    ASSERT_TRUE(sched.Idle());
    // Counter conservation: every submitted job either issued or was
    // cancelled — nothing lost, nothing duplicated.
    ASSERT_EQ(issued.size() + cancelled_total, key_of.size());
    ASSERT_EQ(registry.Snapshot().CounterValue("sched.cancelled"),
              cancelled_total);
    while (in_flight > 0) {
      sched.OnGroupDone();
      --in_flight;
    }
    ASSERT_EQ(sched.InFlightGroups(), 0u);
    EXPECT_THROW(sched.OnGroupDone(), std::logic_error);
  }
}

// ---------------------------------------------------------------------------
// LruCache (the per-modulus engine cache policy)
// ---------------------------------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 100);
  cache.Put(2, 200);
  ASSERT_NE(cache.Get(1), nullptr);  // refresh 1: now 2 is the coldest
  EXPECT_TRUE(cache.Put(3, 300));    // reports the eviction
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(*cache.Get(1), 100);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(LruCache, PutRefreshesAndReplacesInPlace) {
  LruCache<int, int> cache(2);
  EXPECT_FALSE(cache.Put(1, 100));
  EXPECT_FALSE(cache.Put(2, 200));
  // Replace refreshes recency, no eviction.
  EXPECT_FALSE(cache.Put(1, 111));
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_TRUE(cache.Put(3, 300));  // now 2 is the coldest
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(*cache.Get(1), 111);
}

// The engine cache's hits, misses and evictions are counted by its owner,
// ExecutionCore, as the engine.cache_* registry counters.
TEST(LruCache, CountsHitsAndMisses) {
  obs::Registry registry;
  ExecutionCore core("bit-serial", {}, /*cache_capacity=*/1,
                     /*blind_seed=*/0, &registry);
  const bignum::BigUInt n{0xfffb};
  const bignum::BigUInt m{0xfff1};
  core.AcquireEngine("bit-serial", n);  // miss
  core.AcquireEngine("bit-serial", n);  // hit
  core.AcquireEngine("bit-serial", n);  // hit
  core.AcquireEngine("bit-serial", m);  // miss, evicts n
  const obs::MetricsSnapshot metrics = registry.Snapshot();
  EXPECT_EQ(metrics.CounterValue("engine.cache_hits"), 2u);
  EXPECT_EQ(metrics.CounterValue("engine.cache_misses"), 2u);
  EXPECT_EQ(metrics.CounterValue("engine.cache_evictions"), 1u);
}

TEST(LruCache, ZeroCapacityNeverStores) {
  LruCache<int, int> cache(0);
  cache.Put(1, 100);
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.Get(1), nullptr);
}

// Randomized cross-check against a straightforward recency-list model.
TEST(LruCache, RandomizedMatchesReferenceModel) {
  auto rng = test::TestRng();
  constexpr std::size_t kCapacity = 4;
  LruCache<int, int> cache(kCapacity);
  std::vector<int> recency;  // most recent first, the oracle
  const auto touch = [&](int key) {
    for (std::size_t i = 0; i < recency.size(); ++i) {
      if (recency[i] == key) {
        recency.erase(recency.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    recency.insert(recency.begin(), key);
  };
  for (int step = 0; step < 2000; ++step) {
    const int key = static_cast<int>(rng.Engine().NextBelow(8));
    if (rng.Engine().NextBelow(2) == 0) {
      const bool present =
          std::find(recency.begin(), recency.end(), key) != recency.end();
      EXPECT_EQ(cache.Get(key) != nullptr, present) << "step " << step;
      if (present) touch(key);
    } else {
      const bool present =
          std::find(recency.begin(), recency.end(), key) != recency.end();
      const bool evicts = !present && recency.size() == kCapacity;
      if (evicts) recency.pop_back();
      EXPECT_EQ(cache.Put(key, key * 10), evicts) << "step " << step;
      touch(key);
    }
    ASSERT_EQ(cache.Size(), recency.size()) << "step " << step;
    for (const int live : recency) {
      // Contains() must agree with the model without disturbing recency.
      ASSERT_TRUE(cache.Contains(live)) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace mont::core
