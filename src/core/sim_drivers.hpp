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
// split one pass across CPUs at multiplication boundaries.  That
// is exact because an MMM does not remember its history: the START edge
// loads every operand register and clears the array, so the full net
// state after an MMM and its drain edge is a function of that MMM's
// operands alone.  A window that starts mid-exponentiation therefore
// replays the MMM before its range as a warm-up and then continues
// exactly as the one-window run would; every pass checks that at each
// boundary before it returns.
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
/// T = (xy + ((-xy * N^-1) mod R) * N) / R with R = 2^(l+2) — the value
/// the bit-serial loop (BitSerialMontgomery::MultiplyAlg2) and the MMMC
/// netlist produce, bit for bit, at a few big-integer operations instead
/// of l+2 iterations.  MmmcModExpRunner predicts window entry points with
/// it.
class Alg2Predictor {
 public:
  /// Requires an odd modulus > 1 (std::invalid_argument otherwise).
  explicit Alg2Predictor(const bignum::BigUInt& modulus);

  bignum::BigUInt Multiply(const bignum::BigUInt& x,
                           const bignum::BigUInt& y) const;

 private:
  bignum::BigUInt modulus_;
  bignum::BigUInt n_prime_;  ///< -N^-1 mod R
  std::size_t r_bits_ = 0;   ///< l + 2
};

/// CPUs in the calling thread's affinity mask (sched_getaffinity; 1 if
/// it cannot be read).
std::size_t AffinityCpuCount();

/// The §4.5 modular exponentiation base^e mod N on a 64-lane MMMC,
/// optionally split into windows that run on their own simulators and
/// threads.
///
/// The MMM sequence is the shared §4.5 schedule (bignum/exp_schedule.hpp,
/// ExpMode::kAlg3: pre-computation Mont(M, R^2), a squaring per scanned
/// exponent bit plus a multiply by M~ per set bit, post-processing
/// Mont(A, 1)), cut into contiguous ranges, one per window:
///   * window 0 runs on the persistent simulator, sim();
///   * window j > 0 runs on a window simulator over the same compiled
///     netlist: it first replays MMM k_j - 1, the one before its range,
///     with toggle counting paused, from operands predicted in software
///     (the schedule executed over Alg2Predictor), then runs its range;
///   * inside a window every MMM takes its operands from the device's own
///     RESULT bus; only the warm-up operands and M~ are predicted.
/// Before Run() returns it checks, for every boundary: window j-1's last
/// MMM operands equal window j's warm-up operands, window j-1's final net
/// state equals window j's state after the warm-up, and window 0's device
/// M~ equals the prediction.  A mismatch throws std::logic_error.  The
/// simulator that ran the last window then becomes sim(), so the next
/// call starts from exactly the state a one-window run leaves behind.
///
/// Window simulators and worker threads are created on first use and
/// reused; a worker's exception is rethrown by Run().  The runner is not
/// thread-safe: one Run() at a time.
class MmmcModExpRunner {
 public:
  /// Builds a simulator with the modulus loaded and any toggle selection
  /// enabled; called once for sim() and once per window simulator, the
  /// latter on that window's worker thread.
  using SimulatorFactory = std::function<std::unique_ptr<rtl::BatchSimulator>()>;
  /// Called on the window's thread once samples [begin, end) of every
  /// lane are in the sample buffer.
  using WindowSink = std::function<void(std::size_t begin, std::size_t end)>;

  MmmcModExpRunner(const MmmcNetlist& gen, const bignum::BigUInt& modulus,
                   SimulatorFactory make_simulator);
  ~MmmcModExpRunner();
  MmmcModExpRunner(const MmmcModExpRunner&) = delete;
  MmmcModExpRunner& operator=(const MmmcModExpRunner&) = delete;

  /// The persistent simulator: window 0 and single multiplications run on
  /// it, and after Run() its RESULT bus holds the exponentiations' results.
  rtl::BatchSimulator& sim() { return *sims_[0]; }
  const rtl::BatchSimulator& sim() const { return *sims_[0]; }

  /// Samples one multiplication contributes: 3l+4, START to DONE.
  std::size_t SamplesPerMmm() const { return 3 * gen_.l + 4; }
  /// MMMs of one exponentiation: the length of its kAlg3 schedule,
  /// bits(e) + popcount(e).
  static std::size_t MmmCount(const bignum::BigUInt& exponent);
  /// Windows Run() uses for `requested` windows and this exponent:
  /// capped so each window holds at least 4 MMMs, 1 when sim() carries
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
  /// driven) in Windows(windows, exponent) windows and returns that
  /// count.  Samples are recorded as in Multiply() (MmmCount *
  /// SamplesPerMmm per lane), and `sink` is told as each window's samples
  /// complete.
  std::size_t Run(std::span<const bignum::BigUInt> bases,
                  const bignum::BigUInt& exponent, std::size_t windows,
                  std::span<std::uint32_t> samples = {},
                  const WindowSink& sink = {});

 private:
  /// Per-window working storage, reused across calls.
  struct Window {
    std::vector<bignum::BigUInt> m;       ///< M~ per lane
    std::vector<bignum::BigUInt> warm_x;  ///< warm-up operands (j > 0)
    std::vector<bignum::BigUInt> warm_y;
    std::vector<std::uint64_t> entry_state;  ///< nets after the warm-up
    std::exception_ptr error;
  };

  void RunWindow(std::size_t j);
  void RunWindowCaught(std::size_t j);
  /// Predicts M~ and the operands of MMM `warm_step` for every lane.
  void Predict(Window& w, std::size_t warm_step) const;
  /// Drives the operands of `step`, reading A from the RESULT bus.
  void LoadOperands(rtl::BatchSimulator& sim, bignum::ExpStep step,
                    const Window& w) const;
  /// START, 3l+3 more edges to DONE, and the drain edge; records the
  /// first 3l+4 edges' toggle counts of lanes 0..lanes-1 to `out`
  /// (sample-major) unless it is null.
  void RunMmm(rtl::BatchSimulator& sim, std::size_t lanes,
              std::uint32_t* out) const;
  void CheckBoundaries(std::size_t windows) const;
  /// Runs window j of every call from generation `seen` on.
  void WorkerLoop(std::size_t j, std::uint64_t seen);

  const MmmcNetlist& gen_;
  bignum::BigUInt modulus_;
  bignum::BigUInt r2_;  ///< R^2 mod N
  /// Made on the first multi-window call (its N^-1 costs set-up time).
  std::optional<Alg2Predictor> predictor_;
  SimulatorFactory make_simulator_;
  std::vector<std::unique_ptr<rtl::BatchSimulator>> sims_;
  std::vector<Window> windows_;

  /// The call in flight: written by Run() before it wakes the workers.
  std::vector<bignum::ExpStep> steps_;
  std::vector<std::size_t> bounds_;  ///< window j runs [bounds_[j], bounds_[j+1])
  std::span<const bignum::BigUInt> bases_;
  std::span<std::uint32_t> samples_;
  const WindowSink* sink_ = nullptr;
  std::uint64_t lane_mask_ = 0;

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;
  std::size_t active_windows_ = 0;
  std::size_t busy_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;  ///< workers_[i] runs window i + 1
};

}  // namespace mont::core
