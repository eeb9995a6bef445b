#include "core/sim_drivers.hpp"

#include <sched.h>

#include <algorithm>
#include <string>
#include <utility>

namespace mont::core {

using bignum::BigUInt;

namespace {

/// Drives `value` on the lanes in `mask` and 0 on the others.
void DriveConstant(rtl::BatchSimulator& sim, const rtl::Bus& bus,
                   const BigUInt& value, std::uint64_t mask) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    sim.SetInput(bus[i], value.Bit(i) ? mask : 0);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Alg2Predictor
// ---------------------------------------------------------------------------

Alg2Predictor::Alg2Predictor(const BigUInt& modulus)
    : modulus_(modulus), r_bits_(modulus.BitLength() + 2) {
  if (!modulus_.IsOdd() || modulus_.IsOne()) {
    throw std::invalid_argument("Alg2Predictor: modulus must be odd and > 1");
  }
  const BigUInt r = BigUInt::PowerOfTwo(r_bits_);
  n_prime_ = r - BigUInt::ModInverse(modulus_, r);
}

BigUInt Alg2Predictor::Multiply(const BigUInt& x, const BigUInt& y) const {
  BigUInt t = x * y;
  const BigUInt tn = t * n_prime_;
  t += (tn - ((tn >> r_bits_) << r_bits_)) * modulus_;  // q = tn mod R
  t >>= r_bits_;
  return t;
}

std::size_t AffinityCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

// ---------------------------------------------------------------------------
// MmmcModExpRunner
// ---------------------------------------------------------------------------

MmmcModExpRunner::MmmcModExpRunner(const MmmcNetlist& gen,
                                   const BigUInt& modulus,
                                   SimulatorFactory make_simulator)
    : gen_(gen),
      modulus_(modulus),
      r2_(BigUInt::PowerOfTwo(2 * (modulus.BitLength() + 2)) % modulus),
      make_simulator_(std::move(make_simulator)) {
  sims_.push_back(make_simulator_());
}

MmmcModExpRunner::~MmmcModExpRunner() {
  {
    const std::lock_guard lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t MmmcModExpRunner::MmmCount(const BigUInt& exponent) {
  std::vector<bignum::ExpStep> steps;
  bignum::BuildExpSchedule(bignum::ExpMode::kAlg3, exponent, &steps);
  return steps.size();
}

std::size_t MmmcModExpRunner::Windows(std::size_t requested,
                                      const BigUInt& exponent) const {
  if (sim().ActiveFaults() > 0) return 1;
  return std::max<std::size_t>(1, std::min(requested, MmmCount(exponent) / 4));
}

void MmmcModExpRunner::Multiply(std::span<const BigUInt> xs,
                                std::span<const BigUInt> ys,
                                std::span<std::uint32_t> samples) {
  if (xs.size() > rtl::BatchSimulator::kLanes || xs.size() != ys.size()) {
    throw std::invalid_argument(
        "MmmcModExpRunner::Multiply: need equal operand counts <= 64");
  }
  if (!samples.empty() && samples.size() != SamplesPerMmm() * xs.size()) {
    throw std::invalid_argument(
        "MmmcModExpRunner::Multiply: sample buffer size mismatch");
  }
  sim().SetInputWideLanes(gen_.x_in, xs);
  sim().SetInputWideLanes(gen_.y_in, ys);
  RunMmm(sim(), xs.size(), samples.empty() ? nullptr : samples.data());
}

std::size_t MmmcModExpRunner::Run(std::span<const BigUInt> bases,
                                  const BigUInt& exponent, std::size_t windows,
                                  std::span<std::uint32_t> samples,
                                  const WindowSink& sink) {
  const std::size_t n = bases.size();
  if (n == 0 || n > rtl::BatchSimulator::kLanes) {
    throw std::invalid_argument("MmmcModExpRunner::Run: need 1 to 64 bases");
  }
  if (exponent.IsZero()) {
    throw std::invalid_argument("MmmcModExpRunner::Run: exponent is zero");
  }
  // The operand buses are l+1 bits wide: a larger base would be truncated.
  for (const BigUInt& base : bases) {
    if (base >= modulus_) {
      throw std::invalid_argument("MmmcModExpRunner::Run: bases must be < N");
    }
  }
  bignum::BuildExpSchedule(bignum::ExpMode::kAlg3, exponent, &steps_);
  const std::size_t mmms = steps_.size();
  if (!samples.empty() && samples.size() != mmms * SamplesPerMmm() * n) {
    throw std::invalid_argument(
        "MmmcModExpRunner::Run: sample buffer size mismatch");
  }

  windows = Windows(windows, exponent);
  bounds_.resize(windows + 1);
  for (std::size_t j = 0; j <= windows; ++j) bounds_[j] = j * mmms / windows;
  bases_ = bases;
  samples_ = samples;
  sink_ = sink ? &sink : nullptr;
  lane_mask_ = n == rtl::BatchSimulator::kLanes ? rtl::BatchSimulator::kAllLanes
                                                : (std::uint64_t{1} << n) - 1;
  if (windows > 1 && !predictor_) predictor_.emplace(modulus_);
  if (sims_.size() < windows) sims_.resize(windows);
  if (windows_.size() < windows) windows_.resize(windows);
  for (Window& w : windows_) w.error = nullptr;
  while (workers_.size() + 1 < windows) {
    workers_.emplace_back(&MmmcModExpRunner::WorkerLoop, this,
                          workers_.size() + 1, generation_);
  }

  if (windows > 1) {
    {
      const std::lock_guard lock(mu_);
      active_windows_ = windows;
      busy_ = windows - 1;
      ++generation_;
    }
    wake_.notify_all();
  }
  RunWindowCaught(0);
  if (windows > 1) {
    std::unique_lock lock(mu_);
    done_.wait(lock, [this] { return busy_ == 0; });
  }
  for (std::size_t j = 0; j < windows; ++j) {
    if (windows_[j].error) std::rethrow_exception(windows_[j].error);
  }
  if (windows > 1) {
    CheckBoundaries(windows);
    std::swap(sims_[0], sims_[windows - 1]);
  }
  return windows;
}

void MmmcModExpRunner::WorkerLoop(std::size_t j, std::uint64_t seen) {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      if (j >= active_windows_) continue;
    }
    RunWindowCaught(j);
    const std::lock_guard lock(mu_);
    if (--busy_ == 0) done_.notify_one();
  }
}

void MmmcModExpRunner::RunWindowCaught(std::size_t j) {
  try {
    RunWindow(j);
  } catch (...) {
    windows_[j].error = std::current_exception();
  }
}

void MmmcModExpRunner::RunWindow(std::size_t j) {
  Window& w = windows_[j];
  const std::size_t n = bases_.size();
  const std::size_t spm = SamplesPerMmm();
  const std::size_t begin = bounds_[j];
  const std::size_t end = bounds_[j + 1];
  if (sims_[j] == nullptr) sims_[j] = make_simulator_();  // first use
  rtl::BatchSimulator& sim = *sims_[j];
  if (j > 0) {
    // Warm-up: replay the MMM before this window, uncounted, so the
    // circuit holds what the previous window leaves behind.
    Predict(w, begin - 1);
    sim.PauseToggleCapture();
    sim.SetInputWideLanes(gen_.x_in, w.warm_x);
    sim.SetInputWideLanes(gen_.y_in, w.warm_y);
    RunMmm(sim, n, nullptr);
    sim.ResumeToggleCapture();
    w.entry_state.resize(gen_.netlist->NodeCount());
    for (std::size_t net = 0; net < w.entry_state.size(); ++net) {
      w.entry_state[net] = sim.Peek(static_cast<rtl::NetId>(net));
    }
  }
  for (std::size_t k = begin; k < end; ++k) {
    LoadOperands(sim, steps_[k], w);
    RunMmm(sim, n, samples_.empty() ? nullptr : samples_.data() + k * spm * n);
    if (steps_[k].dst == bignum::ExpSlot::kMont) {
      w.m = sim.PeekWideLanes(gen_.result, n);
    }
  }
  if (sink_ != nullptr) (*sink_)(begin * spm, end * spm);
}

void MmmcModExpRunner::Predict(Window& w, std::size_t warm_step) const {
  const std::size_t n = bases_.size();
  w.m.resize(n);
  w.warm_x.resize(n);
  w.warm_y.resize(n);
  const std::span<const bignum::ExpStep> before(steps_.data(), warm_step);
  const bignum::ExpStep& warm = steps_[warm_step];
  for (std::size_t lane = 0; lane < n; ++lane) {
    bignum::ExpExecutor<BigUInt> run(before, bases_[lane], r2_, BigUInt{1});
    run.Run([this](const BigUInt& x, const BigUInt& y) {
      return predictor_->Multiply(x, y);
    });
    w.m[lane] = run[bignum::ExpSlot::kMont];
    w.warm_x[lane] = run[warm.x];
    w.warm_y[lane] = run[warm.y];
  }
}

void MmmcModExpRunner::LoadOperands(rtl::BatchSimulator& sim,
                                    bignum::ExpStep step,
                                    const Window& w) const {
  using bignum::ExpOp;
  if (step.x == bignum::ExpSlot::kBase) {  // pre-computation Mont(M, R^2)
    sim.SetInputWideLanes(gen_.x_in, bases_);
    DriveConstant(sim, gen_.y_in, r2_, lane_mask_);
    return;
  }
  // Every later kAlg3 step reads A (M~ before the first squaring), the
  // previous MMM's result, moved bus to bus in lane-parallel form.
  for (std::size_t i = 0; i < gen_.x_in.size(); ++i) {
    const std::uint64_t a = sim.Peek(gen_.result[i]) & lane_mask_;
    sim.SetInput(gen_.x_in[i], a);
    if (step.op == ExpOp::kSquare) sim.SetInput(gen_.y_in[i], a);
  }
  if (step.op == ExpOp::kMultiply) sim.SetInputWideLanes(gen_.y_in, w.m);
  if (step.op == ExpOp::kDomain) {  // post-processing Mont(A, 1)
    DriveConstant(sim, gen_.y_in, BigUInt{1}, lane_mask_);
  }
}

void MmmcModExpRunner::RunMmm(rtl::BatchSimulator& sim, std::size_t lanes,
                              std::uint32_t* out) const {
  const auto record = [&](std::size_t edge) {
    if (out != nullptr) {
      std::copy_n(sim.ToggleCounts().begin(), lanes, out + edge * lanes);
    }
  };
  const auto all_done = [&] {
    return sim.Peek(gen_.done) == rtl::BatchSimulator::kAllLanes;
  };
  sim.SetInputAll(gen_.start, true);
  sim.Tick();  // START edge: operand load — sample 0 of this MMM
  sim.SetInputAll(gen_.start, false);
  record(0);
  for (std::size_t edge = 1; edge < SamplesPerMmm(); ++edge) {
    if (all_done()) {
      throw std::runtime_error("MmmcModExpRunner: DONE before 3l+4 cycles");
    }
    sim.Tick();
    record(edge);
  }
  if (!all_done()) {
    throw std::runtime_error("MmmcModExpRunner: DONE never arrived");
  }
  // Drain OUT -> IDLE so the next START is sampled from IDLE.  The drain
  // edge is control-only housekeeping between multiplications and is not
  // part of any MMM's 3l+4-sample window.
  sim.Tick();
}

void MmmcModExpRunner::CheckBoundaries(std::size_t windows) const {
  const std::size_t n = bases_.size();
  for (std::size_t j = 1; j < windows; ++j) {
    // Window j-1's simulator has not moved since its last MMM.
    const rtl::BatchSimulator& prev = *sims_[j - 1];
    const Window& cur = windows_[j];
    const auto fail = [j](const char* what) {
      throw std::logic_error(std::string("MmmcModExpRunner: ") + what +
                             " at the start of window " + std::to_string(j));
    };
    if (prev.PeekWideLanes(gen_.x_in, n) != cur.warm_x ||
        prev.PeekWideLanes(gen_.y_in, n) != cur.warm_y) {
      fail("warm-up operands differ from the device's");
    }
    for (std::size_t net = 0; net < cur.entry_state.size(); ++net) {
      if (prev.Peek(static_cast<rtl::NetId>(net)) != cur.entry_state[net]) {
        fail("net state after the warm-up differs");
      }
    }
    if (cur.m != windows_[0].m) fail("predicted M~ differs from the device's");
  }
}

}  // namespace mont::core
