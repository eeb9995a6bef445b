// sim_drivers.hpp — the MMMC pin-level drive protocol, shared by tests
// and benches.
//
// A generated MMMC netlist is driven the way the paper's environment
// drives the chip: load the modulus once, then each multiplication
// presents the operands, pulses START for one clock edge, and runs to
// DONE (3l+4 edges on a healthy circuit).  That handshake used to be
// re-implemented by every consumer; these two gtest-free drivers — one
// per simulation engine — are the single home for it.  The test harness
// (tests/testutil_netlist.hpp) derives from them to add gtest-flavoured
// convenience wrappers.
//
// MmmcModExpRunner runs the §4.5 exponentiation (the shared kAlg3
// schedule of bignum/exp_schedule.hpp) on the 64-lane engine and can
// spread one pass over several threads at multiplication boundaries.
// Each thread starts on its own contiguous range of MMMs; a thread that
// runs dry steals the back half of the largest range not yet run
// (MmmSplitter), so no thread idles while another still has at least
// four MMMs ahead of it.  Any cut is exact because an MMM does not
// remember its history: the START edge loads every operand register and
// clears the array, so the full net state after an MMM and its drain edge
// is a function of that MMM's operands alone.  A range that starts
// mid-exponentiation therefore replays the MMM before it as a warm-up,
// from operands predicted on 64-bit words (Alg2Predictor), and then
// continues exactly as the one-thread run would; every pass checks that
// at each cut before it returns.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/exp_schedule.hpp"
#include "core/netlist_gen.hpp"
#include "rtl/batch_sim.hpp"
#include "rtl/simulator.hpp"

namespace mont::core {

/// Drives every bit of an input bus from the matching bits of `value`.
inline void DriveBus(rtl::Simulator& sim, const rtl::Bus& bus,
                     const bignum::BigUInt& value) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    sim.SetInput(bus[i], value.Bit(i));
  }
}

/// Drives the same value into every lane of a batch simulator's bus.
inline void DriveBusAllLanes(rtl::BatchSimulator& sim, const rtl::Bus& bus,
                             const bignum::BigUInt& value) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    sim.SetInputAll(bus[i], value.Bit(i));
  }
}

/// Drives one lane of a batch simulator's bus.
inline void DriveBusLane(rtl::BatchSimulator& sim, const rtl::Bus& bus,
                         std::size_t lane, const bignum::BigUInt& value) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    sim.SetInputLane(bus[i], lane, value.Bit(i));
  }
}

/// Scalar (1-lane) MMMC drive protocol.
class MmmcSimDriver {
 public:
  /// Owns a fresh simulator over the generated netlist.
  explicit MmmcSimDriver(const MmmcNetlist& gen)
      : gen_(gen),
        owned_(std::make_unique<rtl::Simulator>(*gen.netlist)),
        sim_(*owned_) {}

  /// Borrows an existing simulator (fault campaigns construct their own).
  MmmcSimDriver(const MmmcNetlist& gen, rtl::Simulator& sim)
      : gen_(gen), sim_(sim) {}

  rtl::Simulator& sim() { return sim_; }
  const MmmcNetlist& gen() const { return gen_; }

  void LoadModulus(const bignum::BigUInt& n) { DriveBus(sim_, gen_.n_in, n); }

  /// Dual-field builds only: true selects GF(p), false selects GF(2^m).
  void SelectField(bool gfp) { sim_.SetInput(gen_.fsel, gfp); }

  /// Presents x, y and pulses START for exactly one clock edge.
  void Start(const bignum::BigUInt& x, const bignum::BigUInt& y) {
    DriveBus(sim_, gen_.x_in, x);
    DriveBus(sim_, gen_.y_in, y);
    sim_.SetInput(gen_.start, true);
    sim_.Tick();
    sim_.SetInput(gen_.start, false);
  }

  void Tick() { sim_.Tick(); }
  bool Done() const { return sim_.Peek(gen_.done); }

  bignum::BigUInt Result() const { return sim_.PeekWide(gen_.result); }

  /// One full multiplication.  Returns false if DONE does not arrive within
  /// `max_cycles` edges (a hung FSM — fault campaigns count that as a
  /// detection).  On success the OUT state is drained so the next Start()
  /// begins from IDLE, and `cycles_taken` receives the START-to-DONE edge
  /// count (always 3l+4 on a healthy circuit).
  bool TryMultiply(const bignum::BigUInt& x, const bignum::BigUInt& y,
                   bignum::BigUInt* out,
                   std::uint64_t* cycles_taken = nullptr,
                   std::uint64_t max_cycles = 0) {
    if (max_cycles == 0) max_cycles = 8 * (gen_.l + 4);
    Start(x, y);
    std::uint64_t cycles = 1;
    while (!Done()) {
      if (cycles >= max_cycles) return false;
      sim_.Tick();
      ++cycles;
    }
    if (out != nullptr) *out = Result();
    if (cycles_taken != nullptr) *cycles_taken = cycles;
    sim_.Tick();  // drain OUT -> IDLE
    return true;
  }

 private:
  const MmmcNetlist& gen_;
  std::unique_ptr<rtl::Simulator> owned_;
  rtl::Simulator& sim_;
};

/// 64-lane companion: drives up to 64 independent operand pairs through
/// one generated MMMC netlist per simulation pass.  All lanes share the
/// modulus and the START schedule, so the control path (a function of
/// START and the counter only) stays lane-uniform and DONE rises on every
/// lane in the same cycle — the paper's 3l+4.
class MmmcBatchSimDriver {
 public:
  explicit MmmcBatchSimDriver(const MmmcNetlist& gen)
      : gen_(gen),
        owned_(std::make_unique<rtl::BatchSimulator>(*gen.netlist)),
        sim_(*owned_) {}

  /// Borrows an existing simulator (a pre-compiled netlist, a fault
  /// campaign's simulator, ...).
  MmmcBatchSimDriver(const MmmcNetlist& gen, rtl::BatchSimulator& sim)
      : gen_(gen), sim_(sim) {}

  rtl::BatchSimulator& sim() { return sim_; }
  const MmmcNetlist& gen() const { return gen_; }

  void LoadModulus(const bignum::BigUInt& n) {
    DriveBusAllLanes(sim_, gen_.n_in, n);
  }

  /// Dual-field builds only: true selects GF(p), false selects GF(2^m).
  void SelectField(bool gfp) { sim_.SetInputAll(gen_.fsel, gfp); }

  /// Presents operand pair k on lane k (lanes beyond xs.size() get 0) and
  /// pulses START on every lane for exactly one clock edge.  Throws
  /// std::invalid_argument for more than 64 pairs or mismatched sizes.
  void Start(const std::vector<bignum::BigUInt>& xs,
             const std::vector<bignum::BigUInt>& ys) {
    if (xs.size() > rtl::BatchSimulator::kLanes || xs.size() != ys.size()) {
      throw std::invalid_argument(
          "MmmcBatchSimDriver::Start: need equal operand counts <= 64");
    }
    sim_.SetInputWideLanes(gen_.x_in, xs);
    sim_.SetInputWideLanes(gen_.y_in, ys);
    sim_.SetInputAll(gen_.start, true);
    sim_.Tick();
    sim_.SetInputAll(gen_.start, false);
  }

  void Tick() { sim_.Tick(); }
  /// DONE word across lanes; 0 or all-ones on a healthy circuit.
  std::uint64_t DoneLanes() const { return sim_.Peek(gen_.done); }
  bool AllDone() const { return DoneLanes() == rtl::BatchSimulator::kAllLanes; }

  bignum::BigUInt Result(std::size_t lane) const {
    return sim_.PeekWide(gen_.result, lane);
  }

  /// One full multiplication of up to 64 operand pairs.  Returns false if
  /// DONE does not arrive on every lane within `max_cycles` edges.  On
  /// success `out` (if given) receives one result per input pair, the OUT
  /// state is drained so the next Start() begins from IDLE, and
  /// `cycles_taken` receives the START-to-DONE edge count (always 3l+4 on
  /// a healthy circuit).
  bool TryMultiply(const std::vector<bignum::BigUInt>& xs,
                   const std::vector<bignum::BigUInt>& ys,
                   std::vector<bignum::BigUInt>* out,
                   std::uint64_t* cycles_taken = nullptr,
                   std::uint64_t max_cycles = 0) {
    if (max_cycles == 0) max_cycles = 8 * (gen_.l + 4);
    Start(xs, ys);
    std::uint64_t cycles = 1;
    while (!AllDone()) {
      if (cycles >= max_cycles) return false;
      sim_.Tick();
      ++cycles;
    }
    if (out != nullptr) *out = sim_.PeekWideLanes(gen_.result, xs.size());
    if (cycles_taken != nullptr) *cycles_taken = cycles;
    sim_.Tick();  // drain OUT -> IDLE
    return true;
  }

 private:
  const MmmcNetlist& gen_;
  std::unique_ptr<rtl::BatchSimulator> owned_;
  rtl::BatchSimulator& sim_;
};

/// Algorithm 2's exact output in closed form: for x, y < 2N,
/// T = (xy + qN) / R with q = (-xy * N^-1) mod R and R = 2^(l+2) — the
/// value the bit-serial loop (BitSerialMontgomery::MultiplyAlg2) and the
/// MMMC netlist produce, bit for bit.  It is computed by one CIOS pass
/// over 64-bit words whose last reduction digit is (l+2) mod 64 bits wide
/// (64 when that is 0), with no final subtraction: the digits' q sums to
/// the one q below R that makes xy + qN divisible by R.  MmmcModExpRunner
/// predicts range entry points with it.
class Alg2Predictor {
 public:
  using Word = std::uint64_t;

  /// Requires an odd modulus > 1 (std::invalid_argument otherwise).
  explicit Alg2Predictor(const bignum::BigUInt& modulus);

  /// Requires x, y < 2N (std::invalid_argument otherwise).
  bignum::BigUInt Multiply(const bignum::BigUInt& x,
                           const bignum::BigUInt& y) const;

  /// 64-bit words of an operand or a result: ceil((l+2)/64).
  std::size_t Words() const { return n_.size(); }
  /// out = T(x, y) for x, y < 2N, each Words() words, least significant
  /// first; out may alias x or y.  Allocates nothing up to l = 2046.
  void Multiply(const Word* x, const Word* y, Word* out) const;

 private:
  bignum::BigUInt two_n_;
  std::vector<Word> n_;     ///< N in Words() words
  Word n0_inv_ = 0;         ///< -N^-1 mod 2^64
  unsigned top_bits_ = 64;  ///< width of the last reduction digit
};

/// CPUs in the calling thread's affinity mask (sched_getaffinity; 1 if
/// it cannot be read).
std::size_t AffinityCpuCount();

/// The split rule of a pass's MMMs [0, m) over W threads, without the
/// threads: MmmcModExpRunner calls it under its lock.
///
/// Thread t starts on range t, [t*m/W, (t+1)*m/W), and claims its MMMs
/// front to back.  A thread that runs dry steals: it cuts the range with
/// the most MMMs not yet claimed (the lowest index on a tie) at the middle
/// of that remainder, takes the back half as a new range, and the owner
/// stops at the shortened end.  A remainder of fewer than kMinSplit MMMs
/// is never cut, so both halves hold at least two.  The ranges always
/// partition [0, m), and only range 0 starts at MMM 0.
class MmmSplitter {
 public:
  static constexpr std::size_t kMinSplit = 4;

  struct Range {
    std::size_t begin = 0;  ///< first MMM
    std::size_t next = 0;   ///< first MMM not yet claimed
    std::size_t end = 0;    ///< one past the last MMM

    friend bool operator==(const Range&, const Range&) = default;
  };

  /// Ranges 0..threads-1 (threads in 1..mmms).
  void Reset(std::size_t mmms, std::size_t threads);
  /// The next MMM of `range` for its owner, or nullopt once it reaches
  /// the range's (possibly shortened) end.
  std::optional<std::size_t> Claim(std::size_t range);
  /// For a thread that ran dry: the index of the new range it now owns,
  /// or nullopt when no remainder has kMinSplit MMMs.
  std::optional<std::size_t> Steal();

  std::span<const Range> Ranges() const { return ranges_; }

 private:
  std::vector<Range> ranges_;
};

/// The §4.5 modular exponentiation base^e mod N on a 64-lane MMMC,
/// optionally spread over several threads, each on its own simulator.
///
/// The MMM sequence is the shared §4.5 schedule (bignum/exp_schedule.hpp,
/// ExpMode::kAlg3: pre-computation Mont(M, R^2), a squaring per scanned
/// exponent bit plus a multiply by M~ per set bit, post-processing
/// Mont(A, 1)), run as the contiguous ranges of an MmmSplitter:
///   * thread 0 is the caller, on the persistent simulator sim(); it runs
///     range 0, which starts at MMM 0, so it continues from the state the
///     previous call left, and it reads M~ from the device;
///   * thread t > 0 is a worker on its own simulator over the same
///     compiled netlist;
///   * a range starting at MMM k > 0 first replays MMM k - 1 with toggle
///     counting paused, from operands predicted in software (the schedule
///     executed over Alg2Predictor on 64-bit words), then runs its own
///     MMMs, each taking its operands from the device's own RESULT bus;
///     only the warm-up operands and, off thread 0, M~ are predicted.
/// A thread keeps a net-state snapshot after every warm-up and after
/// every range that ends before the last MMM.  Before Run() returns it
/// checks every cut: the range before it exits with the warm-up's
/// operands and net state, and each thread's predicted M~ equals the
/// device's.  A mismatch throws std::logic_error.  The simulator that ran
/// the last MMM then becomes sim(), so the next call starts from exactly
/// the state a one-thread run leaves behind.
///
/// Worker simulators, threads and snapshot buffers are created on first
/// use, each on its own thread, and reused; a thread's exception stops
/// further stealing and is rethrown by Run().  The runner is not
/// thread-safe: one Run() at a time.
class MmmcModExpRunner {
 public:
  /// Builds a simulator with the modulus loaded and any toggle selection
  /// enabled; called once for sim() and once per further simulator (one
  /// per worker thread and a spare), on the thread that first runs on it.
  using SimulatorFactory = std::function<std::unique_ptr<rtl::BatchSimulator>()>;
  /// Called on the running thread once samples [begin, end) of every lane
  /// are in the sample buffer: once per range, the ranges disjoint.
  using WindowSink = std::function<void(std::size_t begin, std::size_t end)>;

  MmmcModExpRunner(const MmmcNetlist& gen, const bignum::BigUInt& modulus,
                   SimulatorFactory make_simulator);
  ~MmmcModExpRunner();
  MmmcModExpRunner(const MmmcModExpRunner&) = delete;
  MmmcModExpRunner& operator=(const MmmcModExpRunner&) = delete;

  /// The persistent simulator: range 0 and single multiplications run on
  /// it, and after Run() its RESULT bus holds the exponentiations' results.
  rtl::BatchSimulator& sim() { return *sims_[0]; }
  const rtl::BatchSimulator& sim() const { return *sims_[0]; }

  /// Samples one multiplication contributes: 3l+4, START to DONE.
  std::size_t SamplesPerMmm() const { return 3 * gen_.l + 4; }
  /// MMMs of one exponentiation: the length of its kAlg3 schedule,
  /// bits(e) + popcount(e).
  static std::size_t MmmCount(const bignum::BigUInt& exponent);
  /// Threads Run() uses for `requested` windows and this exponent: capped
  /// so each starting range holds at least 4 MMMs, 1 when sim() carries
  /// faults.
  std::size_t Windows(std::size_t requested,
                      const bignum::BigUInt& exponent) const;

  /// One multiplication of up to 64 operand pairs on sim(); if `samples`
  /// is non-empty it receives the per-lane toggle counts of every edge,
  /// sample-major (sample s of lane k at s * lanes + k).
  void Multiply(std::span<const bignum::BigUInt> xs,
                std::span<const bignum::BigUInt> ys,
                std::span<std::uint32_t> samples = {});

  /// Runs bases[k]^exponent mod N on lane k (1 to 64 bases, each < N;
  /// exponent nonzero; std::invalid_argument otherwise, before anything is
  /// driven) on Windows(windows, exponent) threads and returns that
  /// count.  Samples are recorded as in Multiply() (MmmCount *
  /// SamplesPerMmm per lane), and `sink` is told as each range's samples
  /// complete.
  std::size_t Run(std::span<const bignum::BigUInt> bases,
                  const bignum::BigUInt& exponent, std::size_t windows,
                  std::span<std::uint32_t> samples = {},
                  const WindowSink& sink = {});

 private:
  /// One thread's working storage, allocated and reused on that thread.
  struct Worker {
    std::vector<Alg2Predictor::Word> registers;  ///< one lane's, predicting
    /// Bus words (bit i of every lane in word i) of the warm-up operands
    /// and of the M~ this thread predicted.
    std::vector<std::uint64_t> warm_x, warm_y, predicted_m;
    std::size_t sim = 0;     ///< index into sims_ of its simulator
    bool predicted = false;  ///< predicted_m holds this call's M~
    bool ran_last = false;   ///< this call's last MMM ran here
    struct Snapshot {
      std::size_t range = 0;
      bool entry = false;  ///< after the warm-up, else after the range
      std::vector<std::uint64_t> nets;
    };
    std::vector<Snapshot> snapshots;  ///< the first `used` are this call's
    std::size_t used = 0;
    std::exception_ptr error;
  };

  /// Runs range 0 and then stolen ranges on thread t until none is left.
  void RunThread(std::size_t t);
  void RunRange(std::size_t t, std::size_t range);
  /// Predicts M~ and the operands of MMM `warm_step` for every lane.
  void Predict(Worker& w, std::size_t warm_step) const;
  /// Drives the operands of `step`, reading A from the RESULT bus and M~
  /// from the bus words `m`.
  void LoadOperands(rtl::BatchSimulator& sim, bignum::ExpStep step,
                    std::span<const std::uint64_t> m) const;
  /// START, 3l+3 more edges to DONE, and the drain edge; records the
  /// first 3l+4 edges' toggle counts of lanes 0..lanes-1 to `out`
  /// (sample-major) unless it is null.
  void RunMmm(rtl::BatchSimulator& sim, std::size_t lanes,
              std::uint32_t* out) const;
  void CheckBoundaries(std::size_t threads) const;
  /// Runs thread t of every call from generation `seen` on.
  void WorkerLoop(std::size_t t, std::uint64_t seen);

  const MmmcNetlist& gen_;
  bignum::BigUInt modulus_;
  bignum::BigUInt r2_;  ///< R^2 mod N
  /// Made on the first multi-thread call (its set-up costs time).
  std::optional<Alg2Predictor> predictor_;
  std::vector<Alg2Predictor::Word> r2_words_;
  SimulatorFactory make_simulator_;
  /// Thread t's simulator is sims_[t]; after the last MMM its thread
  /// moves on to the spare, sims_[threads].
  std::vector<std::unique_ptr<rtl::BatchSimulator>> sims_;
  std::vector<Worker> workers_;                             ///< per thread

  /// The call in flight: written by Run() before it wakes the threads.
  std::vector<bignum::ExpStep> steps_;
  std::span<const bignum::BigUInt> bases_;
  std::span<std::uint32_t> samples_;
  const WindowSink* sink_ = nullptr;
  std::uint64_t lane_mask_ = 0;
  /// M~ as bus words, read from the device by thread 0.
  std::vector<std::uint64_t> device_m_;

  std::mutex mu_;
  MmmSplitter splitter_;  ///< guarded by mu_
  bool failed_ = false;   ///< a thread threw: no more stealing; by mu_
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;
  std::size_t active_threads_ = 0;
  std::size_t busy_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  ///< threads_[i] is thread i + 1
};

}  // namespace mont::core
