#include "core/exp_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "core/interleaved.hpp"

namespace mont::core {

using bignum::BigUInt;

namespace {

/// One job on its own (single-channel issues only): the engine's ModExp,
/// with every MMM charged as a single issue at the engine's per-multiply
/// model rather than measured, as the paired path charges its issues.
BigUInt RunSolo(const MmmEngine& engine, const BigUInt& base,
                const BigUInt& exponent, EngineStats* stats) {
  EngineStats local;
  BigUInt result = engine.ModExp(base, exponent, &local);
  local.single_issues = local.mmm_invocations;
  local.engine_cycles = local.mmm_invocations * engine.MultiplyCyclesModel();
  *stats += local;
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// PairedModExp
// ---------------------------------------------------------------------------

PairedExpResult PairedModExp(const MmmEngine& engine_a, const BigUInt& base_a,
                             const BigUInt& exp_a, const MmmEngine& engine_b,
                             const BigUInt& base_b, const BigUInt& exp_b,
                             InterleavedMmmc* array) {
  if (engine_a.l() != engine_b.l()) {
    throw std::invalid_argument(
        "PairedModExp: moduli must have equal bit length to share an array");
  }
  if (engine_a.Field() != engine_b.Field()) {
    throw std::invalid_argument(
        "PairedModExp: both jobs must operate in the same field");
  }
  for (const MmmEngine* engine : {&engine_a, &engine_b}) {
    if (!engine->Caps().pairable_streams) {
      throw std::invalid_argument(
          std::string("PairedModExp: backend '") +
          std::string(engine->Name()) +
          "' has no dual-channel variant to co-schedule on");
    }
  }
  const std::size_t l = engine_a.l();
  if (array != nullptr) {
    if (array->l() != l || array->Modulus(0) != engine_a.Modulus() ||
        array->Modulus(1) != engine_b.Modulus()) {
      throw std::invalid_argument(
          "PairedModExp: array channels must match the engines' moduli");
    }
    // The array multiplies with R = 2^(l+2); an engine with another
    // Montgomery parameter (word-mont, high-radix, blum-paar) would feed
    // the streams an inconsistent domain-entry factor.
    for (const MmmEngine* engine : {&engine_a, &engine_b}) {
      const BigUInt r = BigUInt::PowerOfTwo(l + 2);
      if (engine->MontFactor() != (r * r) % engine->Modulus()) {
        throw std::invalid_argument(
            "PairedModExp: cycle-accurate array needs R = 2^(l+2) engines");
      }
    }
  }
  // Each job is the §4.5 schedule; every MMM depends on the previous one
  // of the same job only, so the two step sequences zip issue for issue
  // onto the two channels with no cross-job hazard.
  std::vector<bignum::ExpStep> steps_a;
  std::vector<bignum::ExpStep> steps_b;
  bignum::BuildExpSchedule(bignum::ExpMode::kAlg3, exp_a, &steps_a);
  bignum::BuildExpSchedule(bignum::ExpMode::kAlg3, exp_b, &steps_b);
  bignum::ExpExecutor<BigUInt> run_a(steps_a, engine_a.Reduce(base_a),
                                     engine_a.MontFactor(), BigUInt{1});
  bignum::ExpExecutor<BigUInt> run_b(steps_b, engine_b.Reduce(base_b),
                                     engine_b.MontFactor(), BigUInt{1});

  // Issue accounting follows each engine's own per-multiply model (3l+4
  // for the paper's array family), so solo and paired execution of the
  // same job are charged consistently.  A dual-channel pair costs one
  // cycle over the slower channel's multiply — 3l+5 on the array.
  const std::uint64_t single_cost_a = engine_a.MultiplyCyclesModel();
  const std::uint64_t single_cost_b = engine_b.MultiplyCyclesModel();
  const std::uint64_t pair_cost = std::max(single_cost_a, single_cost_b) + 1;

  PairedExpResult out;
  const BigUInt zero;
  while (!run_a.Done() || !run_b.Done()) {
    if (!run_a.Done() && !run_b.Done()) {
      // Dual-channel issue: one MMM of each job in 3l+5 cycles.
      if (array != nullptr) {
        auto pair = array->MultiplyPair(run_a.X(), run_a.Y(), run_b.X(),
                                        run_b.Y());
        run_a.Consume(std::move(pair.a));
        run_b.Consume(std::move(pair.b));
      } else {
        run_a.Consume(engine_a.Multiply(run_a.X(), run_a.Y()));
        run_b.Consume(engine_b.Multiply(run_b.X(), run_b.Y()));
      }
      ++out.stats.paired_issues;
      out.stats.engine_cycles += pair_cost;
    } else {
      // One job has drained: the leftover issues singly.
      const bool a_live = !run_a.Done();
      bignum::ExpExecutor<BigUInt>& run = a_live ? run_a : run_b;
      const MmmEngine& engine = a_live ? engine_a : engine_b;
      if (array != nullptr) {
        auto pair = a_live ? array->MultiplyPair(run.X(), run.Y(), zero, zero)
                           : array->MultiplyPair(zero, zero, run.X(), run.Y());
        run.Consume(a_live ? std::move(pair.a) : std::move(pair.b));
      } else {
        run.Consume(engine.Multiply(run.X(), run.Y()));
      }
      ++out.stats.single_issues;
      out.stats.engine_cycles += a_live ? single_cost_a : single_cost_b;
    }
  }
  out.a = engine_a.Reduce(run_a.Result());
  out.b = engine_b.Reduce(run_b.Result());
  out.stats_a = ScheduleStats(steps_a, engine_a.l());
  out.stats_b = ScheduleStats(steps_b, engine_b.l());
  return out;
}

// ---------------------------------------------------------------------------
// ExecutionCore
// ---------------------------------------------------------------------------

ExecutionCore::ExecutionCore(std::string engine_name,
                             EngineOptions engine_options,
                             std::size_t cache_capacity,
                             obs::Registry* registry)
    : engine_name_(std::move(engine_name)),
      engine_options_(engine_options),
      cache_(cache_capacity == 0 ? 1 : cache_capacity) {
  if (registry != nullptr) {
    metrics_.engine_cycles = registry->GetCounter("engine.cycles");
    metrics_.paper_model_cycles =
        registry->GetCounter("engine.paper_model_cycles");
    metrics_.mmm_invocations = registry->GetCounter("engine.mmm_invocations");
    metrics_.squarings = registry->GetCounter("engine.squarings");
    metrics_.multiplications = registry->GetCounter("engine.multiplications");
    metrics_.cache_hits = registry->GetCounter("engine.cache_hits");
    metrics_.cache_misses = registry->GetCounter("engine.cache_misses");
    metrics_.cache_evictions = registry->GetCounter("engine.cache_evictions");
  }
  // Resolve the backend up front so a bad name or a capability mismatch
  // (e.g. a GF(2^m) service on a GF(p)-only backend) fails at
  // construction, not on the first worker thread.
  const EngineRegistry::Entry* entry =
      EngineRegistry::Global().Find(engine_name_);
  if (entry == nullptr) {
    throw std::invalid_argument("ExpService: unknown engine '" + engine_name_ +
                                "'");
  }
  if (engine_options_.field == EngineField::kGf2 && !entry->caps.gf2) {
    throw std::invalid_argument("ExpService: engine '" + engine_name_ +
                                "' does not support GF(2^m)");
  }
}

void ExecutionCore::ValidateModulus(const BigUInt& modulus) const {
  // Same predicate the registry factory will apply on the worker thread —
  // fail at Submit time instead of poisoning a future later.
  ValidateEngineModulus(modulus, engine_options_.field, "ExpService");
}

const std::string& ExecutionCore::ResolveEngineName(
    const ExpJobOptions& options) const {
  if (options.engine_name.empty()) return engine_name_;
  // Per-job override: apply the same checks the constructor applied to
  // the default backend, at Submit time instead of on a worker thread.
  const EngineRegistry::Entry* entry =
      EngineRegistry::Global().Find(options.engine_name);
  if (entry == nullptr) {
    throw std::invalid_argument("ExpService: unknown engine '" +
                                options.engine_name + "'");
  }
  if (engine_options_.field == EngineField::kGf2 && !entry->caps.gf2) {
    throw std::invalid_argument("ExpService: engine '" + options.engine_name +
                                "' does not support GF(2^m)");
  }
  return options.engine_name;
}

bool ExecutionCore::Pairable(const ExpJobOptions& options) const {
  return EngineRegistry::Global()
      .Find(ResolveEngineName(options))
      ->caps.pairable_streams;
}

std::shared_ptr<const MmmEngine> ExecutionCore::AcquireEngine(
    const std::string& engine_name, const BigUInt& modulus) {
  // Hex digits never collide with the separator, so (engine, modulus)
  // pairs key uniquely — jobs on different backends share one cache.
  const std::string key = engine_name + ':' + modulus.ToHex();
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    if (auto* hit = cache_.Get(key)) {
      metrics_.cache_hits.Increment();
      return *hit;
    }
    metrics_.cache_misses.Increment();
  }
  // The R^2-mod-N precomputation (and for the simulated backends the
  // netlist build) is the expensive step the cache amortizes — do it
  // outside the lock so a miss never stalls workers hitting other moduli.
  // Two workers racing on the same cold modulus may both construct; the
  // first Put wins and the loser adopts it.
  std::shared_ptr<const MmmEngine> engine =
      MakeEngine(engine_name, modulus, engine_options_);
  std::lock_guard<std::mutex> lk(cache_mu_);
  if (auto* winner = cache_.Get(key)) {
    // The race loser adopts the winner's engine; its second lookup
    // counts as a hit.
    metrics_.cache_hits.Increment();
    return *winner;
  }
  if (cache_.Put(key, engine)) metrics_.cache_evictions.Increment();
  return engine;
}

void ExecutionCore::PublishGroupStats(const EngineStats& stats) {
  metrics_.engine_cycles.Add(stats.engine_cycles);
  metrics_.paper_model_cycles.Add(stats.paper_model_cycles);
  metrics_.mmm_invocations.Add(stats.mmm_invocations);
  metrics_.squarings.Add(stats.squarings);
  metrics_.multiplications.Add(stats.multiplications);
}

ExecutionCore::Outcome ExecutionCore::RunGroup(
    std::span<const JobSpec* const> group) {
  Outcome outcome;
  outcome.results.resize(group.size());
  try {
    if (group.size() == 2) {
      const auto engine_a =
          AcquireEngine(ResolveEngineName(group[0]->options),
                        group[0]->modulus);
      const auto engine_b =
          AcquireEngine(ResolveEngineName(group[1]->options),
                        group[1]->modulus);
      // Per-job engine overrides can put two backends on one issue —
      // any mix works as long as both model pairable array streams of
      // equal operand length; any other 2-job group falls back to solo
      // issues instead of failing.
      if (engine_a->Caps().pairable_streams &&
          engine_b->Caps().pairable_streams &&
          engine_a->l() == engine_b->l() &&
          engine_a->Field() == engine_b->Field()) {
        PairedExpResult paired =
            PairedModExp(*engine_a, group[0]->base, group[0]->exponent,
                         *engine_b, group[1]->base, group[1]->exponent);
        outcome.results[0].value = std::move(paired.a);
        outcome.results[1].value = std::move(paired.b);
        outcome.results[0].stats = paired.stats_a;
        outcome.results[1].stats = paired.stats_b;
        for (ExpResult& result : outcome.results) {
          result.paired = true;
          // The group's array occupancy is the closest per-job
          // measurement pairing admits (the two MMM streams are
          // interleaved cycle by cycle); both partners report the shared
          // issue accounting.
          result.stats.paired_issues = paired.stats.paired_issues;
          result.stats.single_issues = paired.stats.single_issues;
          result.stats.engine_cycles = paired.stats.engine_cycles;
        }
        outcome.paired = true;
        // Publish once per group: per-job operation counts from both
        // streams plus the *shared* issue accounting (counting it per
        // result would double the array occupancy).
        EngineStats group_stats = paired.stats_a;
        group_stats += paired.stats_b;
        group_stats.paired_issues = paired.stats.paired_issues;
        group_stats.single_issues = paired.stats.single_issues;
        group_stats.engine_cycles = paired.stats.engine_cycles;
        PublishGroupStats(group_stats);
      }
    }
    if (!outcome.paired) {
      for (std::size_t i = 0; i < group.size(); ++i) {
        const auto engine = AcquireEngine(
            ResolveEngineName(group[i]->options), group[i]->modulus);
        ExpResult& result = outcome.results[i];
        result.value = RunSolo(*engine, group[i]->base, group[i]->exponent,
                               &result.stats);
        PublishGroupStats(result.stats);
      }
    }
  } catch (...) {
    outcome.error = std::current_exception();
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

namespace {

ExpServiceOptions Normalised(ExpServiceOptions options) {
  if (options.workers == 0) options.workers = 1;
  if (options.max_batch == 0) options.max_batch = 1;
  return options;
}

StealScheduler::Config SchedulerConfig(const ExpServiceOptions& options,
                                       obs::Registry* registry) {
  StealScheduler::Config config;
  config.kind = options.scheduler;
  config.workers = options.workers;
  config.enable_pairing = options.enable_pairing;
  config.work_stealing = options.work_stealing;
  config.unpair_timeout = options.unpair_timeout;
  config.max_batch = options.max_batch;
  config.registry = registry;
  config.tracer = options.tracer;
  return config;
}

ExpResult CancelledResult() {
  ExpResult result;
  result.cancelled = true;
  result.stats.cancelled = 1;
  return result;
}

// Callbacks are documented noexcept-in-spirit; anything they throw is
// contained here, so a misbehaving callback cannot affect other jobs.
void RunCallback(const Dispatcher::Job& job, const ExpResult& result) {
  if (!job.callback) return;
  try {
    job.callback(result);
  } catch (...) {
  }
}

}  // namespace

Dispatcher::Dispatcher(ExpServiceOptions options)
    : options_(Normalised(std::move(options))),
      owned_registry_(options_.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      registry_(options_.registry != nullptr ? options_.registry
                                             : owned_registry_.get()),
      core_(options_.engine_name, options_.engine_options,
            options_.engine_cache_capacity, registry_),
      sched_(SchedulerConfig(options_, registry_)) {
  metrics_.jobs_submitted = registry_->GetCounter("jobs.submitted");
  metrics_.jobs_completed = registry_->GetCounter("jobs.completed");
  metrics_.jobs_cancelled = registry_->GetCounter("jobs.cancelled");
  metrics_.pair_issues = registry_->GetCounter("issues.paired");
  metrics_.single_issues = registry_->GetCounter("issues.single");
  registry_->AddInvariant("jobs.conservation", {"jobs.submitted"},
                          {"jobs.completed", "jobs.cancelled"});
  // The 3l+5-per-pair credit models the C-slow variant of the array
  // schedule; a backend without pairable streams (word-serial datapaths)
  // must not report fictitious dual-channel throughput.  That is
  // enforced per job — non-pairable jobs are submitted unpairable and
  // RunGroup runs any 2-job group its backends cannot co-schedule as
  // solo issues — rather than by disabling pairing service-wide, so
  // jobs whose ExpJobOptions override selects a pairable backend still
  // co-schedule.
}

std::uint64_t Dispatcher::TraceId(const Job& job) {
  return job.spec.options.trace_id != 0 ? job.spec.options.trace_id : job.id;
}

Dispatcher::Job Dispatcher::Prepare(BigUInt modulus, BigUInt base,
                                    BigUInt exponent, ExpJobOptions options,
                                    Callback callback) const {
  core_.ValidateModulus(modulus);
  Job job;
  job.pairable = core_.Pairable(options);
  job.spec.modulus = std::move(modulus);
  job.spec.base = std::move(base);
  job.spec.exponent = std::move(exponent);
  job.spec.options = std::move(options);
  job.callback = std::move(callback);
  return job;
}

void Dispatcher::Enter(Job job, std::uint64_t now) {
  if (job.id == 0) AssignId(&job);
  job.submit_tick = now;
  const std::uint64_t key = job.spec.modulus.BitLength();
  metrics_.jobs_submitted.Increment();
  if (Tracing()) {
    options_.tracer->Instant("job.submit", TraceId(job), 0, now,
                             {{"job", job.id}, {"key", key}});
  }
  sched_.Submit(job.id, key, job.pairable, now);
  pending_.emplace(job.id, std::move(job));
}

std::vector<Dispatcher::Group> Dispatcher::Claim(std::size_t worker,
                                                 std::uint64_t now) {
  std::vector<StealScheduler::Issue> issues;
  sched_.AcquireBatch(worker, now, &issues);
  std::vector<Group> groups(issues.size());
  for (std::size_t g = 0; g < issues.size(); ++g) {
    Group& group = groups[g];
    group.issue = issues[g];
    group.worker = worker;
    group.jobs.reserve(group.issue.count);
    for (std::size_t i = 0; i < group.issue.count; ++i) {
      auto it = pending_.find(group.issue.ids[i]);
      group.jobs.push_back(std::move(it->second));
      pending_.erase(it);
    }
  }
  return groups;
}

void Dispatcher::Gate(Group* group, std::uint64_t now) {
  const auto live_end = std::stable_partition(
      group->jobs.begin(), group->jobs.end(), [now](const Job& job) {
        const std::uint64_t deadline = job.spec.options.deadline;
        return deadline == 0 || now < deadline;
      });
  std::move(live_end, group->jobs.end(), std::back_inserter(group->expired));
  group->jobs.erase(live_end, group->jobs.end());
}

void Dispatcher::Run(Group* group) {
  if (group->jobs.empty()) return;
  std::array<const ExecutionCore::JobSpec*, 2> specs{};
  for (std::size_t i = 0; i < group->jobs.size(); ++i) {
    specs[i] = &group->jobs[i].spec;
  }
  group->outcome = core_.RunGroup(
      std::span<const ExecutionCore::JobSpec* const>(specs.data(),
                                                     group->jobs.size()));
  // Scheduling provenance rides on every result, so callers can audit
  // steal/unpair decisions per job, not just in aggregate.
  for (ExpResult& result : group->outcome.results) {
    result.stolen = group->issue.stolen;
    result.unpaired_by_timeout = group->issue.unpaired_by_timeout;
  }
}

std::optional<Dispatcher::Job> Dispatcher::CancelQueued(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || !sched_.Cancel(id)) return std::nullopt;
  Job job = std::move(it->second);
  pending_.erase(it);
  return job;
}

void Dispatcher::FinishCancelled(Job job, std::uint64_t now) {
  metrics_.jobs_cancelled.Increment();
  if (Tracing()) {
    options_.tracer->Instant("job.cancelled", TraceId(job), 0, now,
                             {{"job", job.id}});
  }
  const ExpResult result = CancelledResult();
  job.promise.set_value(result);
  RunCallback(job, result);
}

void Dispatcher::Publish(Group* group, std::uint64_t now) {
  if (group->outcome.paired) {
    metrics_.pair_issues.Increment();
  } else {
    metrics_.single_issues.Add(group->jobs.size());
  }
  metrics_.jobs_cancelled.Add(group->expired.size());
  // The scheduler's in-flight accounting gates the hold-for-pairing
  // heuristic; it retires before the promises resolve, so a caller
  // submitting right after .get() sees an idle pool.
  sched_.OnGroupDone();
  if (!Tracing()) return;
  for (std::size_t i = 0; i < group->jobs.size(); ++i) {
    const EngineStats& stats = group->outcome.results[i].stats;
    options_.tracer->Complete(
        "job.run", TraceId(group->jobs[i]), group->worker, group->start, now,
        {{"mmm_invocations", stats.mmm_invocations},
         {"engine_cycles", stats.engine_cycles},
         {"paired", group->outcome.paired ? 1u : 0u},
         {"stolen", group->issue.stolen ? 1u : 0u}});
  }
  for (const Job& job : group->expired) {
    options_.tracer->Instant("job.cancelled", TraceId(job), 0, now,
                             {{"job", job.id}});
  }
}

void Dispatcher::Resolve(Group* group) {
  const ExpResult cancelled = CancelledResult();
  for (Job& job : group->expired) job.promise.set_value(cancelled);
  const ExecutionCore::Outcome& outcome = group->outcome;
  if (outcome.error != nullptr) {
    for (Job& job : group->jobs) job.promise.set_exception(outcome.error);
    ExpResult failed;
    failed.error = outcome.error;
    for (const Job& job : group->jobs) RunCallback(job, failed);
  } else {
    for (std::size_t i = 0; i < group->jobs.size(); ++i) {
      group->jobs[i].promise.set_value(outcome.results[i]);
    }
    for (std::size_t i = 0; i < group->jobs.size(); ++i) {
      RunCallback(group->jobs[i], outcome.results[i]);
    }
  }
  for (const Job& job : group->expired) RunCallback(job, cancelled);
}

void Dispatcher::Retire(const Group& group) {
  metrics_.jobs_completed.Add(group.jobs.size());
}

// ---------------------------------------------------------------------------
// ExpService
// ---------------------------------------------------------------------------

ExpService::ExpService(Options options) : dispatcher_(std::move(options)) {
  clock_ = dispatcher_.options().clock != nullptr ? dispatcher_.options().clock
                                                  : &steady_clock_;
  cont_thread_ = std::thread([this] { ContinuationLoop(); });
  workers_.reserve(dispatcher_.options().workers);
  for (std::size_t i = 0; i < dispatcher_.options().workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ExpService::~ExpService() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Workers are gone, so no callback can post further work after this
  // point: drain the continuation queue, then retire its thread.  Every
  // pending CRT recombination posted by a drained job still runs.
  {
    std::lock_guard<std::mutex> lk(cont_mu_);
    cont_stop_ = true;
  }
  cont_cv_.notify_all();
  cont_thread_.join();
}

std::future<ExpService::Result> ExpService::Enqueue(Dispatcher::Job job) {
  std::future<Result> future = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    dispatcher_.Enter(std::move(job), clock_->Now());
  }
  cv_.notify_one();
  return future;
}

std::future<ExpService::Result> ExpService::Submit(BigUInt modulus,
                                                   BigUInt base,
                                                   BigUInt exponent,
                                                   Callback callback) {
  return Submit(std::move(modulus), std::move(base), std::move(exponent),
                JobOptions{}, std::move(callback));
}

std::future<ExpService::Result> ExpService::Submit(BigUInt modulus,
                                                   BigUInt base,
                                                   BigUInt exponent,
                                                   JobOptions job_options,
                                                   Callback callback) {
  return Enqueue(dispatcher_.Prepare(std::move(modulus), std::move(base),
                                     std::move(exponent),
                                     std::move(job_options),
                                     std::move(callback)));
}

std::vector<std::future<ExpService::Result>> ExpService::SubmitBatch(
    const BigUInt& modulus, std::span<const BigUInt> bases,
    std::span<const BigUInt> exponents) {
  if (bases.size() != exponents.size()) {
    throw std::invalid_argument(
        "ExpService::SubmitBatch: bases/exponents size mismatch");
  }
  std::vector<std::future<Result>> futures;
  futures.reserve(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    futures.push_back(Submit(modulus, bases[i], exponents[i]));
  }
  return futures;
}

void ExpService::Post(std::function<void()> continuation) {
  {
    std::lock_guard<std::mutex> lk(cont_mu_);
    continuations_.push(std::move(continuation));
  }
  cont_cv_.notify_one();
}

void ExpService::Wait() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return DrainedLocked(); });
}

bool ExpService::ClaimLocked(std::size_t index,
                             std::unique_lock<std::mutex>& lk,
                             std::vector<Dispatcher::Group>* groups) {
  for (;;) {
    // While draining, every held job's deadline is treated as expired
    // so nothing waits out a timeout the pool no longer needs.
    const std::uint64_t now =
        stop_ ? std::numeric_limits<std::uint64_t>::max() : clock_->Now();
    *groups = dispatcher_.Claim(index, now);
    if (!groups->empty()) return true;
    if (stop_) return false;
    const auto deadline = dispatcher_.NextHoldDeadline();
    if (!deadline.has_value()) {
      cv_.wait(lk);
    } else if (dispatcher_.options().clock != nullptr) {
      // An injected clock's ticks don't map onto wall time, so the
      // timed wait degrades to a poll (test-only configuration).
      cv_.wait_for(lk, std::chrono::microseconds(100));
    } else {
      cv_.wait_until(lk, std::chrono::steady_clock::time_point(
                             std::chrono::nanoseconds(*deadline)));
    }
  }
}

void ExpService::WorkerLoop(std::size_t index) {
  const auto& observer = dispatcher_.options().worker_observer;
  std::vector<Dispatcher::Group> groups;
  std::unique_lock<std::mutex> lk(mu_);
  while (ClaimLocked(index, lk, &groups)) {
    for (const Dispatcher::Group& group : groups) {
      in_flight_ += group.jobs.size();
    }
    lk.unlock();
    for (Dispatcher::Group& group : groups) {
      // Fault-injection/observability hook (chaos harness): runs before
      // the deadline gate so a stalled worker realistically turns into
      // deadline misses downstream.  Exceptions are contained.
      if (observer) {
        try {
          observer(index);
        } catch (...) {
        }
      }
      group.start = clock_->Now();
      Dispatcher::Gate(&group, group.start);
      dispatcher_.Run(&group);
      const std::uint64_t end = clock_->Now();
      lk.lock();
      dispatcher_.Publish(&group, end);
      lk.unlock();
      Dispatcher::Resolve(&group);
      // in_flight_ retires only after the callbacks, so Wait() returning
      // guarantees every completion hook has run.
      lk.lock();
      dispatcher_.Retire(group);
      in_flight_ -= group.jobs.size() + group.expired.size();
      const bool drained = DrainedLocked();
      lk.unlock();
      if (drained) idle_cv_.notify_all();
    }
    lk.lock();
  }
}

void ExpService::ContinuationLoop() {
  std::unique_lock<std::mutex> lk(cont_mu_);
  for (;;) {
    cont_cv_.wait(lk,
                  [this] { return cont_stop_ || !continuations_.empty(); });
    if (continuations_.empty()) {
      if (cont_stop_) return;
      continue;
    }
    std::function<void()> continuation = std::move(continuations_.front());
    continuations_.pop();
    lk.unlock();
    try {
      continuation();
    } catch (...) {
      // Continuations are fire-and-forget; errors surface through the
      // promises they own, never by killing the drain thread.
    }
    lk.lock();
  }
}

// ---------------------------------------------------------------------------
// DeterministicExecutor
// ---------------------------------------------------------------------------

DeterministicExecutor::DeterministicExecutor(ExpServiceOptions options)
    : dispatcher_(std::move(options)) {
  worker_busy_.assign(dispatcher_.options().workers, false);
}

void DeterministicExecutor::Schedule(std::uint64_t tick,
                                     std::function<void()> action) {
  Event event;
  event.tick = std::max(tick, now_);
  event.seq = next_seq_++;
  event.action = std::move(action);
  events_.push(std::move(event));
}

std::future<DeterministicExecutor::Result> DeterministicExecutor::SubmitAt(
    std::uint64_t tick, BigUInt modulus, BigUInt base, BigUInt exponent,
    ExpJobOptions job_options, Callback callback) {
  return SubmitJobAt(tick, dispatcher_.Prepare(std::move(modulus),
                                               std::move(base),
                                               std::move(exponent),
                                               std::move(job_options),
                                               std::move(callback)));
}

std::future<DeterministicExecutor::Result> DeterministicExecutor::SubmitJobAt(
    std::uint64_t tick, Dispatcher::Job job) {
  dispatcher_.AssignId(&job);
  std::future<Result> future = job.promise.get_future();
  const std::uint64_t deadline = job.spec.options.deadline;
  const std::uint64_t id = job.id;
  auto shared = std::make_shared<Dispatcher::Job>(std::move(job));
  Schedule(tick, [this, shared] {
    dispatcher_.Enter(std::move(*shared), now_);
    TryDispatch();
  });
  if (deadline != 0) {
    // Exact-tick cancellation: the event fires at the deadline (never
    // before the submit event — same tick, later seq) and releases the
    // job if it is still queued or held for pairing.
    Schedule(std::max(tick, deadline), [this, id] { CancelIfQueued(id); });
  }
  return future;
}

void DeterministicExecutor::CancelIfQueued(std::uint64_t id) {
  if (auto job = dispatcher_.CancelQueued(id)) FinishCancelled(std::move(*job));
}

void DeterministicExecutor::FinishCancelled(Dispatcher::Job job) {
  JobRecord record;
  record.id = job.id;
  record.submit_tick = job.submit_tick;
  record.start_tick = now_;
  record.finish_tick = now_;
  record.cancelled = true;
  records_.push_back(record);
  dispatcher_.FinishCancelled(std::move(job), now_);
}

void DeterministicExecutor::ScheduleHoldWake() {
  bool any_idle = false;
  for (const bool busy : worker_busy_) any_idle = any_idle || !busy;
  if (!any_idle) return;
  const auto deadline = dispatcher_.NextHoldDeadline();
  if (!deadline.has_value()) return;
  const std::uint64_t tick = std::max(*deadline, now_);
  if (hold_wake_scheduled_ && hold_wake_tick_ <= tick) return;
  hold_wake_scheduled_ = true;
  hold_wake_tick_ = tick;
  Schedule(tick, [this] {
    hold_wake_scheduled_ = false;
    TryDispatch();
  });
}

void DeterministicExecutor::TryDispatch() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t w = 0; w < worker_busy_.size(); ++w) {
      if (worker_busy_[w]) continue;
      std::vector<Dispatcher::Group> groups = dispatcher_.Claim(w, now_);
      if (groups.empty()) continue;
      progress = true;
      worker_busy_[w] = true;
      std::uint64_t start = now_;
      for (Dispatcher::Group& group : groups) {
        // Claim-time deadline gate (as in the threaded worker): a job
        // claimed at the very tick its deadline fires — before the
        // cancellation event ran — is still cancelled, never dispatched.
        Dispatcher::Gate(&group, now_);
        for (Dispatcher::Job& job : group.expired) {
          FinishCancelled(std::move(job));
        }
        group.expired.clear();
        if (group.jobs.empty()) {
          // The whole group expired: retire it without occupying the
          // worker's virtual array for any ticks.
          dispatcher_.Publish(&group, now_);
          continue;
        }
        // The values are computed eagerly (they are time-independent);
        // only the *completion* is timestamped, at the group's modelled
        // array occupancy past its start tick.
        dispatcher_.Run(&group);
        std::uint64_t duration = 0;
        if (group.outcome.error == nullptr) {
          if (group.outcome.paired) {
            duration = group.outcome.results[0].stats.engine_cycles;
          } else {
            for (const ExpResult& result : group.outcome.results) {
              duration += result.stats.engine_cycles;
            }
          }
        }
        group.start = start;
        start += duration;
        auto running = std::make_shared<Dispatcher::Group>(std::move(group));
        Schedule(start, [this, running] { Complete(running.get()); });
      }
      Schedule(start, [this, w] {
        worker_busy_[w] = false;
        TryDispatch();
      });
    }
  }
  ScheduleHoldWake();
}

void DeterministicExecutor::Complete(Dispatcher::Group* group) {
  dispatcher_.Publish(group, now_);
  for (const Dispatcher::Job& job : group->jobs) {
    JobRecord record;
    record.id = job.id;
    record.submit_tick = job.submit_tick;
    record.start_tick = group->start;
    record.finish_tick = now_;
    record.worker = group->worker;
    record.paired = group->outcome.paired;
    record.stolen = group->issue.stolen;
    record.unpaired_by_timeout = group->issue.unpaired_by_timeout;
    records_.push_back(record);
  }
  Dispatcher::Resolve(group);
  dispatcher_.Retire(*group);
}

void DeterministicExecutor::RunUntilIdle() {
  if (running_) return;  // re-entrant call from a callback: outer loop runs
  running_ = true;
  while (!events_.empty()) {
    Event event = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = event.tick;
    event.action();
  }
  running_ = false;
}

}  // namespace mont::core
