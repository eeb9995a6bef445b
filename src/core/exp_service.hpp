// exp_service.hpp — the batched, asynchronous modular-exponentiation
// service: the serving layer between crypto traffic (RSA, ECC) and the
// repo's multiplication backends.
//
// The paper's endpoint is one modular exponentiator; a deployment serves a
// *stream* of exponentiations over a handful of hot moduli.  This layer
// adds exactly what that takes:
//
//   * a thread-safe job queue — Submit() returns a std::future (with an
//     optional completion callback), SubmitBatch() fans a vector of jobs
//     out, and Post() hands a continuation (e.g. RSA-CRT recombination
//     + fault check) to a dedicated thread so it never blocks a worker's
//     array;
//   * a worker pool whose per-modulus multiplication engines are
//     LRU-cached, so repeated traffic on one key pays the R^2-mod-N
//     precomputation once (core/schedule.hpp LruCache);
//   * the scheduling core (core/schedule.hpp StealScheduler): per-worker
//     deques with cross-worker work stealing, hold-for-pairing with an
//     age-based unpair timeout, and adaptive batch claims — two queued
//     jobs of equal operand length are issued together onto one
//     dual-channel interleaved array, where each pair of MMMs costs 3l+5
//     cycles instead of the sequential 2(3l+4) = 6l+8.  Its v1 mode (one
//     shared queue) is selectable via Options::scheduler for A/B benches.
//
// One Dispatcher holds everything about a job that is not threads or
// time: submit validation, the pending-job table, the scheduler, issue
// group claim / deadline gate / execution (ExecutionCore) / completion,
// and the jobs.*/issues.* metrics and job.* trace events.  It takes the
// current tick on every call.  The threaded ExpService and the
// single-threaded DeterministicExecutor are two shells that drive it —
// one with worker threads and a steady clock, the other with an event
// queue in virtual time — which is how the stealing/unpair/pipelining
// policy is unit-tested and benchmarked deterministically on any host.
//
// The multiplication backend is selected per service through the engine
// registry (Options::engine_name, core/engine.hpp) — any registered
// datapath serves, and with Options::engine_options.field = kGf2 a
// dual-field backend serves GF(2^m) jobs (the modulus is the field
// polynomial f and each job computes a field exponentiation, e.g. the
// Fermat inversions of BinaryCurve::ScalarMulBatch).  Individual jobs
// may override the backend through ExpJobOptions.
//
// PairedModExp() is the engine underneath the pairing path and is exposed
// directly: it zips the MMM streams of two independent exponentiations
// (which may use two different equal-length moduli — see the dual-modulus
// InterleavedMmmc) through any two backends of equal operand length, and
// can optionally run every product clock-by-clock on a dual-channel array
// model.  All execution paths are bit-identical; tests assert it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bignum/biguint.hpp"
#include "core/engine.hpp"
#include "core/schedule.hpp"

namespace mont::core {

class InterleavedMmmc;

struct PairedExpResult {
  bignum::BigUInt a;     ///< base_a^exp_a mod N_a
  bignum::BigUInt b;     ///< base_b^exp_b mod N_b
  /// Shared issue accounting for the whole pair, charged per the engines'
  /// own per-multiply models: a dual-channel paired issue costs one cycle
  /// over the slower channel's multiply (3l+5 on the paper's array, whose
  /// model is 3l+4), leftovers issue singly at their engine's model.  The
  /// sum (the array occupancy) lands in engine_cycles.
  EngineStats stats;
  EngineStats stats_a;   ///< per-job operation counts (A)
  EngineStats stats_b;   ///< per-job operation counts (B)
};

/// Runs two independent modular exponentiations with their MMM streams
/// zipped onto one dual-channel array: while both jobs still have work,
/// every issue carries one MMM of each (3l+5 cycles for the two); once the
/// shorter job drains, the leftover stream issues singly (3l+4).  The two
/// engines may hold different moduli but must have equal operand length.
/// With `array` non-null every product additionally runs clock-by-clock on
/// that dual-modulus interleaved array model (its channels must match the
/// engines' moduli, and the engines must use the array's Montgomery
/// parameter R = 2^(l+2) — the bit-serial family); otherwise the engines'
/// own Multiply computes the products.
PairedExpResult PairedModExp(const MmmEngine& engine_a,
                             const bignum::BigUInt& base_a,
                             const bignum::BigUInt& exp_a,
                             const MmmEngine& engine_b,
                             const bignum::BigUInt& base_b,
                             const bignum::BigUInt& exp_b,
                             InterleavedMmmc* array = nullptr);

/// Per-job execution options (the service-wide Options stay the
/// defaults).
struct ExpJobOptions {
  /// Registry backend for this job; empty falls back to
  /// Options::engine_name.  Validated at Submit time (unknown name or a
  /// field-capability mismatch throws std::invalid_argument).  Jobs on
  /// different backends coexist in one service — the engine cache keys
  /// on (engine, modulus) — and two equal-length jobs still co-schedule
  /// when both backends have pairable streams; a job on a non-pairable
  /// backend always issues solo.
  std::string engine_name;
  /// Absolute deadline on the service clock (0 = none).  A job whose
  /// deadline has passed when a worker claims it is *cancelled before
  /// engine dispatch*: its future resolves with ExpResult::cancelled set
  /// (value empty, stats.cancelled = 1), its callback still fires, and
  /// the service counts it under jobs.cancelled.  A job
  /// already handed to an engine is never aborted mid-multiply — the
  /// deadline bounds queueing, not execution.
  std::uint64_t deadline = 0;
  /// Trace id stamped on every span/instant this job emits (0 = use the
  /// service-assigned job id).  Callers propagating a request through
  /// several jobs (the RSA-CRT halves of one signing request) set the
  /// request id here, so one id threads the whole lifecycle in a trace.
  std::uint64_t trace_id = 0;
};

struct ExpResult {
  bignum::BigUInt value;  ///< base^exponent mod modulus
  /// The job's ExpJobOptions::deadline expired before engine dispatch:
  /// `value` is empty and no MMM work was performed (stats.cancelled = 1,
  /// everything else zero).  Callers must check this before using value.
  bool cancelled = false;
  bool paired = false;    ///< ran co-scheduled with a partner job
  /// The issue group was stolen from another worker's deque (v2).
  bool stolen = false;
  /// Held for a partner that never came and released solo by the
  /// age-based unpair timeout (v2).
  bool unpaired_by_timeout = false;
  /// The job's engine failed (the exception its future carries): `value`
  /// and `stats` are empty.  Seen only by callbacks — the future throws.
  std::exception_ptr error;
  /// This job's operation counts plus the issue accounting of the issue
  /// group it ran in (shared by both jobs of a pair; a solo job's MMMs
  /// all count as single issues): engine_cycles is the group's array
  /// occupancy, charged per the engine's own per-multiply model — on
  /// the paper's array family, paired*(3l+5) + single*(3l+4).
  EngineStats stats;
};

// ---------------------------------------------------------------------------
// ExecutionCore — the execution substrate shared by the threaded service
// and the deterministic executor
// ---------------------------------------------------------------------------

/// Everything needed to run one issue group, with no opinion about
/// threads or time: backend resolution + validation, the per-(engine,
/// modulus) LRU engine cache, and the paired/solo group runner.
/// ExpService workers and the DeterministicExecutor both execute through
/// one of these, so the two paths cannot diverge.
class ExecutionCore {
 public:
  /// `registry` (may be null) receives the engine.* counters: cycle and
  /// operation aggregates published per executed group, plus the
  /// engine-cache hit/miss/eviction tallies.
  ExecutionCore(std::string engine_name, EngineOptions engine_options,
                std::size_t cache_capacity, obs::Registry* registry = nullptr);

  struct JobSpec {
    bignum::BigUInt modulus;
    bignum::BigUInt base;
    bignum::BigUInt exponent;
    ExpJobOptions options;
  };

  struct Outcome {
    std::vector<ExpResult> results;  ///< one per job, in group order
    bool paired = false;             ///< really co-scheduled dual-channel
    std::exception_ptr error;        ///< set => results are invalid
  };

  /// Runs one issue group (1 or 2 jobs): a 2-job group co-schedules via
  /// PairedModExp when both backends pair and lengths/fields match,
  /// otherwise every job runs solo.  Never throws — failures land in
  /// Outcome::error.
  Outcome RunGroup(std::span<const JobSpec* const> group);

  /// Validates a modulus for this core's field (throws
  /// std::invalid_argument), same predicate the engine factory applies.
  void ValidateModulus(const bignum::BigUInt& modulus) const;
  /// Resolves a job's effective backend name and validates it (must be
  /// registered and support the service's field).
  const std::string& ResolveEngineName(const ExpJobOptions& options) const;
  /// Whether the job's backend models pairable dual-channel streams.
  bool Pairable(const ExpJobOptions& options) const;
  std::shared_ptr<const MmmEngine> AcquireEngine(
      const std::string& engine_name, const bignum::BigUInt& modulus);

 private:
  /// Publishes one executed group's EngineStats into the engine.*
  /// counters (a pair's shared issue accounting is counted once).
  void PublishGroupStats(const EngineStats& stats);

  std::string engine_name_;
  EngineOptions engine_options_;

  std::mutex cache_mu_;  // independent of the service mutex
  LruCache<std::string, std::shared_ptr<const MmmEngine>> cache_;

  struct {
    obs::Counter engine_cycles;
    obs::Counter paper_model_cycles;
    obs::Counter mmm_invocations;
    obs::Counter squarings;
    obs::Counter multiplications;
    obs::Counter cache_hits;
    obs::Counter cache_misses;
    obs::Counter cache_evictions;
  } metrics_;
};


/// Service-wide options, shared by ExpService (as ExpService::Options)
/// and DeterministicExecutor.
struct ExpServiceOptions {
  std::size_t workers = 2;  ///< worker threads (>= 1; each owns one array)
  /// Distinct moduli whose engines stay precomputed.
  std::size_t engine_cache_capacity = 8;
  /// Issue two equal-length queued jobs per array pass (3l+5 per MMM
  /// pair); disable to force one job per pass (for A/B benches).  Jobs
  /// on a backend without pairable streams
  /// (EngineCaps::pairable_streams false — the word-serial datapaths)
  /// always issue solo regardless, so no backend reports fictitious
  /// dual-channel throughput.
  bool enable_pairing = true;
  /// Registry name of the multiplication backend a job runs on when it
  /// does not carry its own ExpJobOptions::engine_name override.
  std::string engine_name = "bit-serial";
  /// Backend construction options; field = kGf2 turns the service into
  /// a GF(2^m) field-exponentiation service (needs a dual-field
  /// backend; the constructor throws on a capability mismatch).  These
  /// options apply to per-job engine overrides too.
  EngineOptions engine_options;

  // --- scheduler knobs -------------------------------------------------
  /// Scheduling mode (v2 stealing by default; v1 shared queue for A/B).
  SchedulerKind scheduler = SchedulerKind::kStealing;
  /// Ticks (nanoseconds on the default clock) a lone hot-key job may
  /// be held waiting for a pairing partner before the age-based unpair
  /// timeout releases it solo.
  std::uint64_t unpair_timeout = 200'000;
  /// Idle workers steal the oldest group from other deques (v2 only).
  bool work_stealing = true;
  /// Upper bound of one adaptive batch claim (v2 only; >= 1).
  std::size_t max_batch = 8;
  /// Injected tick source for the scheduler's timing decisions; null
  /// uses a steady nanosecond clock.  Tests inject a ManualClock (the
  /// timed waits then poll).  Must outlive the service.
  const Clock* clock = nullptr;
  /// Fault-injection/observability hook: called by each worker thread,
  /// outside the service lock, immediately before it executes an issue
  /// group.  The chaos harness uses it to stall a worker; it must not
  /// call back into the service.  Null disables it.
  std::function<void(std::size_t worker)> worker_observer;

  // --- observability ---------------------------------------------------
  /// Metrics registry absorbing every service counter (jobs.*,
  /// issues.*, engine.*, sched.*) behind stable dotted names.  Null:
  /// the service owns a private registry, read through registry().
  /// Must outlive the service.
  obs::Registry* registry = nullptr;
  /// Span tracer for the job lifecycle (job.submit, sched.*, job.run,
  /// job.cancelled).  Null disables tracing; a disabled tracer costs
  /// one relaxed load per site.  Must outlive the service.
  obs::Tracer* tracer = nullptr;
};

// ---------------------------------------------------------------------------
// Dispatcher — the one dispatch core both service shells drive
// ---------------------------------------------------------------------------

/// Everything about serving a job that is not threads or time: submit
/// validation, the pending-job table and id assignment, the scheduling
/// core, issue-group claim / deadline gate / execution / completion, the
/// jobs.* and issues.* metrics (with the jobs.conservation invariant:
/// submitted == completed + cancelled on a drained service) and the
/// job.submit / job.run / job.cancelled trace events.
///
/// Externally synchronised: the caller serialises every call except the
/// ones marked thread-safe.  It owns no threads and no clock — every
/// call that makes a timing decision takes the current tick.  One issue
/// group's life is Claim → Gate → Run → Publish → Resolve → Retire; the
/// threaded shell holds its lock around Claim, Publish and Retire only.
/// That order guarantees: counters and the scheduler's OnGroupDone are
/// published before any promise resolves; every promise of a group
/// resolves before any callback runs; jobs.completed retires after the
/// callbacks, so a drained service has run every completion hook.
class Dispatcher {
 public:
  using Callback = std::function<void(const ExpResult&)>;

  struct Job {
    std::uint64_t id = 0;  ///< 0 until AssignId/Enter numbers it
    ExecutionCore::JobSpec spec;
    bool pairable = false;  ///< its backend can share a dual-channel array
    std::promise<ExpResult> promise;
    Callback callback;
    std::uint64_t submit_tick = 0;  ///< set by Enter
  };

  /// One claimed issue group.
  struct Group {
    StealScheduler::Issue issue;
    std::size_t worker = 0;
    std::vector<Job> jobs;     ///< live jobs, in issue order
    std::vector<Job> expired;  ///< moved here by Gate
    ExecutionCore::Outcome outcome;  ///< set by Run
    std::uint64_t start = 0;  ///< start tick of the job.run spans
  };

  /// Normalises the options (workers and max_batch at least 1) and
  /// builds the execution core and the scheduler; throws
  /// std::invalid_argument for an unknown or field-mismatched engine.
  explicit Dispatcher(ExpServiceOptions options);

  // --- submission -------------------------------------------------------
  /// Validates one job (throws std::invalid_argument for an invalid
  /// modulus, an unknown engine or a field-capability mismatch).
  /// Thread-safe.
  Job Prepare(bignum::BigUInt modulus, bignum::BigUInt base,
              bignum::BigUInt exponent, ExpJobOptions options,
              Callback callback) const;
  /// Numbers a job now (Enter numbers any job still at id 0); the
  /// deterministic executor numbers jobs at submit-call time.
  void AssignId(Job* job) { job->id = next_id_++; }
  /// Queues a job at `now` (opportunistic pairing key: its operand bit
  /// length — any two jobs of equal l can share one array).
  void Enter(Job job, std::uint64_t now);

  // --- claim and execution ----------------------------------------------
  /// Claims the next issue groups for `worker` and takes their jobs out
  /// of the pending table.
  std::vector<Group> Claim(std::size_t worker, std::uint64_t now);
  /// Claim-time deadline gate, the last point before engine dispatch:
  /// moves every job whose deadline has passed at `now` to
  /// group->expired.  A pair with one expired half runs solo.
  static void Gate(Group* group, std::uint64_t now);
  /// Executes the live jobs and stamps each result with the group's
  /// scheduling provenance.  Thread-safe (touches only the group and the
  /// internally locked ExecutionCore).
  void Run(Group* group);
  /// Takes a still-queued job (not yet claimed) out of the scheduler for
  /// an exact-tick deadline; nullopt once it was claimed.
  std::optional<Job> CancelQueued(std::uint64_t id);
  /// Resolves one job as deadline-cancelled at `now`: jobs.cancelled,
  /// the job.cancelled event, its promise, then its callback.
  void FinishCancelled(Job job, std::uint64_t now);

  // --- completion -------------------------------------------------------
  /// Counts what actually ran (a 2-job group whose backends could not
  /// co-schedule counts as two single issues) and the expired jobs,
  /// retires the group from the scheduler, and emits job.run spans over
  /// [group->start, now] and job.cancelled events at `now`.
  void Publish(Group* group, std::uint64_t now);
  /// Resolves every promise of the group (expired ones with the typed
  /// cancelled result, failed ones with the engine's exception), then
  /// runs every callback once (a failed job's with ExpResult::error).
  /// Callback exceptions are contained.  Thread-safe.
  static void Resolve(Group* group);
  /// Counts the group's live jobs as completed.
  void Retire(const Group& group);

  /// Nothing queued (claimed groups may still be executing).
  bool Idle() const { return sched_.Idle(); }
  /// Earliest tick a held job becomes claimable, if any is held.
  std::optional<std::uint64_t> NextHoldDeadline() const {
    return sched_.NextHoldDeadline();
  }
  const ExpServiceOptions& options() const { return options_; }
  obs::Registry& registry() const { return *registry_; }

 private:
  /// The id stamped on the job's trace events: options.trace_id, or the
  /// job id when that is 0.
  static std::uint64_t TraceId(const Job& job);
  bool Tracing() const {
    return options_.tracer != nullptr && options_.tracer->enabled();
  }

  ExpServiceOptions options_;
  /// Backs registry() when Options::registry is null (declared before
  /// core_ and sched_, which publish into it).
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  ExecutionCore core_;
  StealScheduler sched_;
  std::unordered_map<std::uint64_t, Job> pending_;
  std::uint64_t next_id_ = 1;
  struct {
    obs::Counter jobs_submitted;
    obs::Counter jobs_completed;
    obs::Counter jobs_cancelled;
    obs::Counter pair_issues;
    obs::Counter single_issues;
  } metrics_;
};

/// Thread-safe batched/async exponentiation service: worker threads and
/// a continuation thread around one Dispatcher.
///
/// Jobs execute on the registry backend named in Options (bit-identical
/// across backends, with cycles charged per each engine's validated
/// model), so the service is usable at RSA sizes while still reporting
/// hardware-faithful cycle accounting per job.
class ExpService {
 public:
  using Options = ExpServiceOptions;
  using JobOptions = ExpJobOptions;
  using Result = ExpResult;
  using Callback = std::function<void(const Result&)>;

  ExpService() : ExpService(Options{}) {}
  explicit ExpService(Options options);
  /// Drains every queued job and every posted continuation, then joins
  /// the workers — no future is abandoned, and no callback or
  /// continuation runs after destruction completes.
  ~ExpService();

  ExpService(const ExpService&) = delete;
  ExpService& operator=(const ExpService&) = delete;

  /// Enqueues one job; the optional callback runs exactly once on the
  /// worker thread after every future of the job's issue group is
  /// fulfilled — also when the job fails (ExpResult::error set, the
  /// future throwing it) or is deadline-cancelled — and any exception it
  /// throws is contained (it cannot withhold or poison a future).
  /// Throws std::invalid_argument for an invalid modulus (GF(p): even or
  /// <= 1; GF(2^m): deg(f) < 2 or f(0) != 1).
  std::future<Result> Submit(bignum::BigUInt modulus, bignum::BigUInt base,
                             bignum::BigUInt exponent, Callback callback = {});

  /// Enqueues one job with per-job options (engine override, deadline,
  /// trace id).  Throws std::invalid_argument for an invalid
  /// modulus, an unknown engine name, or a field-capability mismatch.
  std::future<Result> Submit(bignum::BigUInt modulus, bignum::BigUInt base,
                             bignum::BigUInt exponent, JobOptions options,
                             Callback callback = {});

  /// Enqueues bases[i]^exponents[i] mod modulus for every i (sizes must
  /// match).  Same-modulus batches pair with each other naturally.
  std::vector<std::future<Result>> SubmitBatch(
      const bignum::BigUInt& modulus, std::span<const bignum::BigUInt> bases,
      std::span<const bignum::BigUInt> exponents);

  /// Hands a continuation to the service's continuation thread — the
  /// pipelined-CRT hook: a job callback posts recombination + fault
  /// check here so the worker's array moves straight to the next issue.
  /// Continuations run in post order; exceptions are contained; the
  /// destructor drains every posted continuation before returning.
  /// Continuations must not Submit new jobs once destruction has begun.
  void Post(std::function<void()> continuation);

  /// Blocks until every job submitted so far has completed.
  void Wait();

  /// The metrics registry every counter lives in: Options::registry when
  /// provided, the service's private one otherwise.  Registered names:
  /// jobs.submitted / jobs.completed / jobs.cancelled, issues.paired /
  /// issues.single, engine.*, sched.* — plus the jobs.conservation
  /// invariant (submitted == completed + cancelled on a drained
  /// service).
  obs::Registry& registry() const { return dispatcher_.registry(); }

  const Options& options() const { return dispatcher_.options(); }

  /// The service clock: Options::clock, or the service's own steady
  /// nanosecond clock when that is null.
  const Clock& clock() const { return *clock_; }

 private:
  std::future<Result> Enqueue(Dispatcher::Job job);
  void WorkerLoop(std::size_t index);
  /// Claims the next issue groups for `index`, waiting as needed.
  /// Returns false when the worker should exit (stopping and drained).
  bool ClaimLocked(std::size_t index, std::unique_lock<std::mutex>& lk,
                   std::vector<Dispatcher::Group>* groups);
  bool DrainedLocked() const { return dispatcher_.Idle() && in_flight_ == 0; }
  void ContinuationLoop();

  SteadyClock steady_clock_;
  const Clock* clock_ = nullptr;

  mutable std::mutex mu_;            // guards everything below it
  std::condition_variable cv_;       // queue became non-empty / stopping
  std::condition_variable idle_cv_;  // queue drained and no job in flight
  Dispatcher dispatcher_;
  std::size_t in_flight_ = 0;  // claimed jobs not yet retired
  bool stop_ = false;

  std::mutex cont_mu_;  // guards the continuation queue only
  std::condition_variable cont_cv_;
  std::queue<std::function<void()>> continuations_;
  bool cont_stop_ = false;

  std::thread cont_thread_;
  std::vector<std::thread> workers_;  // last member: joins before teardown
};

// ---------------------------------------------------------------------------
// DeterministicExecutor — the dispatch core in virtual time
// ---------------------------------------------------------------------------

/// Single-threaded discrete-event replay of the service: the same
/// Dispatcher validates, schedules (v1 or v2, per Options::scheduler),
/// runs and completes every job, but time is a virtual tick counter and
/// "workers" are simulated array channels whose job durations are the
/// modelled engine cycles.  Every stealing / hold / unpair / batch
/// decision is therefore an exact, replayable function of the submitted
/// workload — the property tests and the multi-tenant stress bench run
/// here, immune to host timing.
///
/// Usage: schedule arrivals with SubmitAt(), then RunUntilIdle().
/// Callbacks fire at the job's virtual completion tick and may schedule
/// further work (at >= Now()).
class DeterministicExecutor {
 public:
  using Result = ExpResult;
  using Callback = std::function<void(const Result&)>;

  explicit DeterministicExecutor(ExpServiceOptions options);

  std::future<Result> SubmitAt(std::uint64_t tick, bignum::BigUInt modulus,
                               bignum::BigUInt base, bignum::BigUInt exponent,
                               ExpJobOptions job_options = {},
                               Callback callback = {});

  /// Processes events until nothing remains; Now() then holds the last
  /// completion tick (the virtual makespan).
  void RunUntilIdle();
  std::uint64_t Now() const { return now_; }

  /// Per-job completion record — the bench derives latency percentiles
  /// and the tests assert scheduling decisions from these.
  struct JobRecord {
    std::uint64_t id = 0;
    std::uint64_t submit_tick = 0;
    std::uint64_t start_tick = 0;
    std::uint64_t finish_tick = 0;
    std::size_t worker = 0;
    bool paired = false;
    bool stolen = false;
    bool unpaired_by_timeout = false;
    /// Deadline expired in queue; finish_tick is the exact cancellation
    /// tick (== the deadline when it expired while queued/held).
    bool cancelled = false;
  };
  const std::vector<JobRecord>& Records() const { return records_; }

  /// The metrics registry (Options::registry or the executor's private
  /// one); same dotted names as the threaded service.
  obs::Registry& registry() const { return dispatcher_.registry(); }

 private:
  struct Event {
    std::uint64_t tick = 0;
    std::uint64_t seq = 0;  ///< schedule order: total, deterministic tie-break
    std::function<void()> action;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return a.tick != b.tick ? a.tick > b.tick : a.seq > b.seq;
    }
  };

  void Schedule(std::uint64_t tick, std::function<void()> action);
  /// Numbers the job now and schedules its arrival (plus, with a
  /// deadline, its exact-tick cancellation) at `tick`.
  std::future<Result> SubmitJobAt(std::uint64_t tick, Dispatcher::Job job);
  /// Deadline event: if `id` is still queued (un-claimed, possibly held
  /// for pairing), releases it from the scheduler and resolves it
  /// cancelled at the current tick.  No-op once the job was dispatched.
  void CancelIfQueued(std::uint64_t id);
  /// Records `job` as deadline-cancelled at the current tick and
  /// resolves it.
  void FinishCancelled(Dispatcher::Job job);
  void TryDispatch();
  /// Completion event of one executed group.
  void Complete(Dispatcher::Group* group);
  void ScheduleHoldWake();

  Dispatcher dispatcher_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::uint64_t now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool running_ = false;

  std::vector<bool> worker_busy_;
  std::uint64_t hold_wake_tick_ = 0;
  bool hold_wake_scheduled_ = false;
  std::vector<JobRecord> records_;
};

}  // namespace mont::core
