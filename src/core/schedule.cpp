// schedule.cpp — the scheduling core (StealScheduler, both modes) and
// the steady tick source.  The policy here is pure and externally
// synchronised; the threaded ExpService and the DeterministicExecutor
// both reach it through one Dispatcher, which is what makes the
// scheduler's behaviour unit-testable tick by tick.
#include "core/schedule.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace mont::core {

std::uint64_t SteadyClock::Now() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ManualClock::Set(std::uint64_t tick) {
  if (tick < now_) {
    throw std::invalid_argument("ManualClock: time must not move backwards");
  }
  now_ = tick;
}

StealScheduler::StealScheduler(Config config) : config_(config) {
  if (config_.workers == 0) config_.workers = 1;
  const bool shared = config_.kind == SchedulerKind::kSharedQueue;
  // The shared-queue mode: one deque every worker claims from, one group
  // per claim (no holds: Submit never classifies a key as hot).
  if (config_.max_batch == 0 || shared) config_.max_batch = 1;
  deques_.resize(shared ? 1 : config_.workers);
  obs::Registry* const registry = config_.registry;
  if (registry == nullptr) return;
  metrics_.dispatched_groups = registry->GetCounter("sched.dispatched_groups");
  metrics_.pairs_formed = registry->GetCounter("sched.pairs_formed");
  metrics_.bonded_groups = registry->GetCounter("sched.bonded_groups");
  metrics_.holds = registry->GetCounter("sched.holds");
  metrics_.hold_pairs = registry->GetCounter("sched.hold_pairs");
  metrics_.unpair_timeouts = registry->GetCounter("sched.unpair_timeouts");
  metrics_.steals = registry->GetCounter("sched.steals");
  metrics_.batch_acquires = registry->GetCounter("sched.batch_acquires");
  metrics_.cancelled = registry->GetCounter("sched.cancelled");
  metrics_.max_batch_claimed = registry->GetGauge("sched.max_batch_claimed");
}

bool StealScheduler::RecordArrivalAndClassify(std::uint64_t key,
                                              std::uint64_t now) {
  KeyTraffic& traffic = traffic_[key];
  bool hot = false;
  if (traffic.has_arrival) {
    const std::uint64_t gap = now - traffic.last_arrival;
    // EWMA with weight 1/4 on the newest gap: one slow outlier does not
    // instantly demote a hot key, a genuinely cold key stays cold.
    traffic.ewma_gap =
        traffic.has_gap ? (3 * traffic.ewma_gap + gap) / 4 : gap;
    traffic.has_gap = true;
    hot = traffic.ewma_gap <= config_.unpair_timeout;
  }
  traffic.last_arrival = now;
  traffic.has_arrival = true;
  return hot;
}

void StealScheduler::Dispatch(Group group) {
  // Least-loaded deque; ties resolve round-robin so equal-load dispatch
  // spreads instead of piling onto worker 0.
  const std::size_t n = deques_.size();
  std::size_t best = rr_cursor_ % n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t candidate = (rr_cursor_ + i) % n;
    if (deques_[candidate].size() < deques_[best].size()) best = candidate;
  }
  rr_cursor_ = (best + 1) % n;
  queued_jobs_ += group.count;
  metrics_.dispatched_groups.Increment();
  deques_[best].push_back(std::move(group));
  if (deques_[best].back().open_solo) {
    open_solos_[deques_[best].back().key] = &deques_[best].back();
  }
}

void StealScheduler::Submit(std::uint64_t id, std::uint64_t key,
                            bool pairable, std::uint64_t now) {
  if (!config_.enable_pairing || !pairable) {
    Group solo;
    solo.ids[0] = id;
    solo.count = 1;
    solo.key = key;
    solo.arrival = now;
    Dispatch(std::move(solo));
    return;
  }
  const bool hot = config_.kind == SchedulerKind::kStealing &&
                   RecordArrivalAndClassify(key, now);
  // 1. A held partner on this key: form the pair and dispatch it.
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (it->key != key) continue;
    Group pair;
    pair.ids[0] = it->id;
    pair.ids[1] = id;
    pair.count = 2;
    pair.key = key;
    pair.arrival = it->arrival;
    waiting_.erase(it);
    // The held job leaves the hold count before the pair re-enters the
    // queued count, or Idle() would never come back true.
    --queued_jobs_;
    metrics_.pairs_formed.Increment();
    metrics_.hold_pairs.Increment();
    if (config_.tracer != nullptr) {
      config_.tracer->Instant("sched.pair", id, 0, now,
                              {{"partner", pair.ids[0]}, {"key", key}});
    }
    Dispatch(std::move(pair));
    return;
  }
  // 2. An un-acquired solo group on this key: join it in place (the only
  //    pairing the shared-queue mode does).
  const auto open = open_solos_.find(key);
  if (open != open_solos_.end()) {
    Group* group = open->second;
    group->ids[1] = id;
    group->count = 2;
    group->open_solo = false;
    open_solos_.erase(open);
    ++queued_jobs_;
    metrics_.pairs_formed.Increment();
    if (config_.tracer != nullptr) {
      config_.tracer->Instant("sched.pair", id, 0, now,
                              {{"partner", group->ids[0]}, {"key", key}});
    }
    return;
  }
  // 3. Lone job.  On a hot key, while the pool has other work to chew
  //    on, hold it for a partner — the age timeout bounds the wait.
  if (hot && PoolBusy()) {
    Held held;
    held.id = id;
    held.key = key;
    held.arrival = now;
    held.ready_at = now + config_.unpair_timeout;
    waiting_.push_back(held);
    ++queued_jobs_;
    metrics_.holds.Increment();
    if (config_.tracer != nullptr) {
      config_.tracer->Instant("sched.hold", id, 0, now,
                              {{"key", key}, {"ready_at", held.ready_at}});
    }
    return;
  }
  // 4. Cold key or idle pool: dispatch immediately, but leave the group
  //    open for a same-key arrival to join before a worker claims it.
  Group solo;
  solo.ids[0] = id;
  solo.count = 1;
  solo.key = key;
  solo.arrival = now;
  solo.open_solo = true;
  Dispatch(std::move(solo));
}

void StealScheduler::SubmitBonded(std::uint64_t id_a, std::uint64_t id_b,
                                  std::uint64_t now) {
  if (!config_.enable_pairing) {
    // With pairing disabled the bonded halves still execute, just as two
    // solo issues.
    Group first, second;
    first.ids[0] = id_a;
    first.count = 1;
    first.arrival = now;
    second.ids[0] = id_b;
    second.count = 1;
    second.arrival = now;
    Dispatch(std::move(first));
    Dispatch(std::move(second));
    return;
  }
  Group pair;
  pair.ids[0] = id_a;
  pair.ids[1] = id_b;
  pair.count = 2;
  pair.bonded = true;
  pair.arrival = now;
  metrics_.bonded_groups.Increment();
  Dispatch(std::move(pair));
}

std::optional<StealScheduler::Issue> StealScheduler::PopGroup(
    std::size_t worker, bool stolen) {
  Group group = std::move(deques_[worker].front());
  deques_[worker].pop_front();
  if (group.open_solo) open_solos_.erase(group.key);
  Issue issue;
  for (std::size_t i = 0; i < group.count; ++i) {
    if (group.cancelled[i]) continue;
    issue.ids[issue.count++] = group.ids[i];
  }
  if (issue.count == 0) return std::nullopt;  // every slot was cancelled
  // A pair whose partner was cancelled issues as a plain solo.
  issue.bonded = group.bonded && issue.count == 2;
  issue.stolen = stolen;
  issue.arrival = group.arrival;
  if (stolen) metrics_.steals.Increment();
  queued_jobs_ -= issue.count;
  ++in_flight_groups_;
  return issue;
}

std::optional<StealScheduler::Issue> StealScheduler::Acquire(
    std::size_t worker, std::uint64_t now) {
  // The outer loop only repeats when a popped group turns out to be a
  // fully-cancelled shell, which is discarded and costs nothing.
  for (;;) {
    // Oldest ready held job (deadline reached, partner never came).
    auto ready = waiting_.end();
    for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
      if (it->ready_at > now) continue;
      if (ready == waiting_.end() || it->arrival < ready->arrival) ready = it;
    }
    const std::size_t home = Home(worker);
    const bool own = !deques_[home].empty();
    // Oldest-arrival wins between the worker's own deque front and the
    // ready held job, so holding can delay a job by at most its timeout —
    // never starve it behind fresher deque traffic.
    if (own && (ready == waiting_.end() ||
                deques_[home].front().arrival <= ready->arrival)) {
      if (auto issue = PopGroup(home, /*stolen=*/false)) return issue;
      continue;
    }
    if (ready != waiting_.end()) {
      Issue issue;
      issue.ids[0] = ready->id;
      issue.count = 1;
      issue.unpaired_by_timeout = true;
      issue.arrival = ready->arrival;
      waiting_.erase(ready);
      metrics_.unpair_timeouts.Increment();
      if (config_.tracer != nullptr) {
        config_.tracer->Instant("sched.unpair", issue.ids[0], worker, now,
                                {{"held_since", issue.arrival}});
      }
      --queued_jobs_;
      ++in_flight_groups_;
      return issue;
    }
    if (config_.work_stealing) {
      bool popped_shell = false;
      for (std::size_t i = 1; i < deques_.size(); ++i) {
        const std::size_t victim = (worker + i) % deques_.size();
        if (deques_[victim].empty()) continue;
        if (auto issue = PopGroup(victim, /*stolen=*/true)) {
          if (config_.tracer != nullptr) {
            config_.tracer->Instant("sched.steal", issue->ids[0], worker, now,
                                    {{"victim", victim}});
          }
          return issue;
        }
        popped_shell = true;
        break;
      }
      if (popped_shell) continue;
    }
    return std::nullopt;
  }
}

bool StealScheduler::Cancel(std::uint64_t id) {
  // Held jobs are plain list entries: release immediately.
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (it->id != id) continue;
    waiting_.erase(it);
    --queued_jobs_;
    metrics_.cancelled.Increment();
    return true;
  }
  // Queued groups are tombstoned in place (open_solos_ holds pointers
  // into the deques, so elements are never erased mid-deque).
  for (auto& deque : deques_) {
    for (Group& group : deque) {
      for (std::size_t i = 0; i < group.count; ++i) {
        if (group.ids[i] != id || group.cancelled[i]) continue;
        group.cancelled[i] = true;
        if (group.open_solo) {
          // No longer a valid upgrade target.
          open_solos_.erase(group.key);
          group.open_solo = false;
        }
        --queued_jobs_;
        metrics_.cancelled.Increment();
        return true;
      }
    }
  }
  return false;
}

std::size_t StealScheduler::AcquireBatch(std::size_t worker,
                                         std::uint64_t now,
                                         std::vector<Issue>* out) {
  std::size_t ready_groups = 0;
  for (const auto& deque : deques_) ready_groups += deque.size();
  for (const Held& held : waiting_) {
    if (held.ready_at <= now) ++ready_groups;
  }
  const std::size_t target = std::clamp<std::size_t>(
      ready_groups / config_.workers, 1, config_.max_batch);
  std::size_t claimed = 0;
  while (claimed < target) {
    auto issue = Acquire(worker, now);
    if (!issue.has_value()) break;
    out->push_back(*issue);
    ++claimed;
  }
  if (claimed > 1) {
    metrics_.batch_acquires.Increment();
    metrics_.max_batch_claimed.RecordMax(static_cast<std::int64_t>(claimed));
  }
  return claimed;
}

void StealScheduler::OnGroupDone() {
  if (in_flight_groups_ == 0) {
    throw std::logic_error("StealScheduler: OnGroupDone without Acquire");
  }
  --in_flight_groups_;
}

std::optional<std::uint64_t> StealScheduler::NextHoldDeadline() const {
  std::optional<std::uint64_t> deadline;
  for (const Held& held : waiting_) {
    if (!deadline.has_value() || held.ready_at < *deadline) {
      deadline = held.ready_at;
    }
  }
  return deadline;
}

bool StealScheduler::Idle() const { return queued_jobs_ == 0; }

std::size_t StealScheduler::QueueDepth(std::size_t worker) const {
  return deques_[Home(worker)].size();
}

}  // namespace mont::core
