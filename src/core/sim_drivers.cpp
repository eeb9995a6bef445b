#include "core/sim_drivers.hpp"

#include <sched.h>

#include <algorithm>
#include <string>
#include <utility>

#include "bignum/montgomery.hpp"

namespace mont::core {

using bignum::BigUInt;
using bignum::WordMontgomery;
using Word = Alg2Predictor::Word;

namespace {

using Wide = unsigned __int128;

/// Accumulator words Alg2Predictor keeps on the stack (l up to 2046).
constexpr std::size_t kStackWords = 34;

/// Drives `value` on the lanes in `mask` and 0 on the others.
void DriveConstant(rtl::BatchSimulator& sim, const rtl::Bus& bus,
                   const BigUInt& value, std::uint64_t mask) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    sim.SetInput(bus[i], value.Bit(i) ? mask : 0);
  }
}

/// Drives bus words (bit i of every lane in words[i]).
void DriveWords(rtl::BatchSimulator& sim, const rtl::Bus& bus,
                std::span<const std::uint64_t> words) {
  for (std::size_t i = 0; i < bus.size(); ++i) sim.SetInput(bus[i], words[i]);
}

/// Sets bit `lane` of words[i] to bit i of `value`.
void ScatterLane(const Word* value, std::size_t lane,
                 std::span<std::uint64_t> words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] |= ((value[i / 64] >> (i % 64)) & 1) << lane;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Alg2Predictor
// ---------------------------------------------------------------------------

Alg2Predictor::Alg2Predictor(const BigUInt& modulus) : two_n_(modulus << 1) {
  if (!modulus.IsOdd() || modulus.IsOne()) {
    throw std::invalid_argument("Alg2Predictor: modulus must be odd and > 1");
  }
  const std::size_t r_bits = modulus.BitLength() + 2;
  n_.resize((r_bits + 63) / 64);
  WordMontgomery::ToWords(modulus, n_);
  top_bits_ = static_cast<unsigned>(r_bits - 64 * (n_.size() - 1));
  // -N^-1 mod 2^64 by Newton iteration, as WordMontgomery does.
  Word inv = n_[0];
  for (int iter = 0; iter < 5; ++iter) inv *= 2 - n_[0] * inv;
  n0_inv_ = 0 - inv;
}

BigUInt Alg2Predictor::Multiply(const BigUInt& x, const BigUInt& y) const {
  if (x >= two_n_ || y >= two_n_) {
    throw std::invalid_argument("Alg2Predictor::Multiply: inputs must be < 2N");
  }
  const std::size_t s = Words();
  std::vector<Word> words(2 * s);
  WordMontgomery::ToWords(x, {words.data(), s});
  WordMontgomery::ToWords(y, {words.data() + s, s});
  Multiply(words.data(), words.data() + s, words.data());
  return WordMontgomery::FromWords({words.data(), s});
}

// CIOS: per word x[i], t += x[i]*y, then t = (t + m*N) / 2^w with
// m = t[0]*(-N^-1) mod 2^w, where w is 64 except top_bits_ for the last
// word.  t < y + N stays below 2^(64s) throughout, and the m's form the
// q of the closed form, so t ends exactly at (xy + qN) / 2^(l+2).
void Alg2Predictor::Multiply(const Word* x, const Word* y, Word* out) const {
  const std::size_t s = n_.size();
  const Word* const n = n_.data();
  Word local[kStackWords];
  std::vector<Word> heap;
  Word* t = local;
  if (s + 2 > kStackWords) {
    heap.resize(s + 2);
    t = heap.data();
  }
  std::fill(t, t + s + 2, Word{0});
  for (std::size_t i = 0; i < s; ++i) {
    Word carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const Wide v = static_cast<Wide>(x[i]) * y[j] + t[j] + carry;
      t[j] = static_cast<Word>(v);
      carry = static_cast<Word>(v >> 64);
    }
    Wide v = static_cast<Wide>(t[s]) + carry;
    t[s] = static_cast<Word>(v);
    t[s + 1] = static_cast<Word>(v >> 64);

    const unsigned bits = i + 1 < s ? 64 : top_bits_;
    Word m = t[0] * n0_inv_;
    if (bits < 64) m &= (Word{1} << bits) - 1;
    carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      v = static_cast<Wide>(m) * n[j] + t[j] + carry;
      t[j] = static_cast<Word>(v);
      carry = static_cast<Word>(v >> 64);
    }
    v = static_cast<Wide>(t[s]) + carry;
    t[s] = static_cast<Word>(v);
    t[s + 1] += static_cast<Word>(v >> 64);
    if (bits == 64) {
      for (std::size_t j = 0; j <= s; ++j) t[j] = t[j + 1];
      t[s + 1] = 0;
    } else {
      for (std::size_t j = 0; j <= s; ++j) {
        t[j] = (t[j] >> bits) | (t[j + 1] << (64 - bits));
      }
      t[s + 1] >>= bits;
    }
  }
  std::copy(t, t + s, out);
}

std::size_t AffinityCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

// ---------------------------------------------------------------------------
// MmmSplitter
// ---------------------------------------------------------------------------

void MmmSplitter::Reset(std::size_t mmms, std::size_t threads) {
  ranges_.clear();
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t begin = t * mmms / threads;
    ranges_.push_back({begin, begin, (t + 1) * mmms / threads});
  }
}

std::optional<std::size_t> MmmSplitter::Claim(std::size_t range) {
  Range& r = ranges_[range];
  if (r.next == r.end) return std::nullopt;
  return r.next++;
}

std::optional<std::size_t> MmmSplitter::Steal() {
  std::size_t victim = 0;
  std::size_t most = 0;
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    const std::size_t left = ranges_[i].end - ranges_[i].next;
    if (left > most) {
      most = left;
      victim = i;
    }
  }
  if (most < kMinSplit) return std::nullopt;
  // The owner keeps the front ceil(left/2); the thief, which pays a
  // warm-up MMM, takes the back floor(left/2).
  const std::size_t mid = ranges_[victim].next + (most + 1) / 2;
  const std::size_t end = ranges_[victim].end;
  ranges_[victim].end = mid;
  ranges_.push_back({mid, mid, end});
  return ranges_.size() - 1;
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
  for (std::thread& thread : threads_) thread.join();
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

  const std::size_t threads = Windows(windows, exponent);
  bases_ = bases;
  samples_ = samples;
  sink_ = sink ? &sink : nullptr;
  lane_mask_ = n == rtl::BatchSimulator::kLanes ? rtl::BatchSimulator::kAllLanes
                                                : (std::uint64_t{1} << n) - 1;
  device_m_.resize(gen_.y_in.size());
  if (threads > 1 && !predictor_) {
    predictor_.emplace(modulus_);
    r2_words_.resize(predictor_->Words());
    WordMontgomery::ToWords(r2_, r2_words_);
  }
  // One simulator per thread and the spare (see RunRange).
  if (sims_.size() < threads + 1) sims_.resize(threads + 1);
  if (workers_.size() < threads) workers_.resize(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    Worker& w = workers_[t];
    w.sim = t;
    w.used = 0;
    w.predicted = false;
    w.ran_last = false;
    w.error = nullptr;
  }
  while (threads_.size() + 1 < threads) {
    threads_.emplace_back(&MmmcModExpRunner::WorkerLoop, this,
                          threads_.size() + 1, generation_);
  }

  {
    const std::lock_guard lock(mu_);
    splitter_.Reset(mmms, threads);
    failed_ = false;
    active_threads_ = threads;
    if (threads > 1) {
      busy_ = threads - 1;
      ++generation_;
    }
  }
  if (threads > 1) wake_.notify_all();
  RunThread(0);
  if (threads > 1) {
    std::unique_lock lock(mu_);
    done_.wait(lock, [this] { return busy_ == 0; });
  }
  for (std::size_t t = 0; t < threads; ++t) {
    if (workers_[t].error) std::rethrow_exception(workers_[t].error);
  }
  if (threads > 1) {
    CheckBoundaries(threads);
    for (std::size_t t = 1; t < threads; ++t) {
      if (workers_[t].ran_last) std::swap(sims_[0], sims_[t]);
    }
  }
  return threads;
}

void MmmcModExpRunner::WorkerLoop(std::size_t t, std::uint64_t seen) {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      if (t >= active_threads_) continue;
    }
    RunThread(t);
    const std::lock_guard lock(mu_);
    if (--busy_ == 0) done_.notify_one();
  }
}

void MmmcModExpRunner::RunThread(std::size_t t) {
  try {
    std::optional<std::size_t> range = t;
    while (range) {
      RunRange(t, *range);
      const std::lock_guard lock(mu_);
      range = failed_ ? std::nullopt : splitter_.Steal();
    }
  } catch (...) {
    workers_[t].error = std::current_exception();
    const std::lock_guard lock(mu_);
    failed_ = true;
  }
}

void MmmcModExpRunner::RunRange(std::size_t t, std::size_t range) {
  Worker& w = workers_[t];
  const std::size_t n = bases_.size();
  const std::size_t spm = SamplesPerMmm();
  std::unique_ptr<rtl::BatchSimulator>& owned = sims_[w.sim];
  if (owned == nullptr) owned = make_simulator_();  // first use
  rtl::BatchSimulator& sim = *owned;
  const auto snapshot = [&](bool entry) {
    if (w.used == w.snapshots.size()) w.snapshots.emplace_back();
    Worker::Snapshot& snap = w.snapshots[w.used++];
    snap.range = range;
    snap.entry = entry;
    snap.nets.resize(gen_.netlist->NodeCount());
    for (std::size_t net = 0; net < snap.nets.size(); ++net) {
      snap.nets[net] = sim.Peek(static_cast<rtl::NetId>(net));
    }
  };

  std::size_t begin = 0;
  {
    const std::lock_guard lock(mu_);
    begin = splitter_.Ranges()[range].begin;
  }
  if (begin > 0) {
    // Warm-up: replay the MMM before this range, uncounted, so the
    // circuit holds what the range before it leaves behind.
    Predict(w, begin - 1);
    sim.PauseToggleCapture();
    DriveWords(sim, gen_.x_in, w.warm_x);
    DriveWords(sim, gen_.y_in, w.warm_y);
    RunMmm(sim, n, nullptr);
    sim.ResumeToggleCapture();
    snapshot(/*entry=*/true);
  }
  // Thread 0 runs MMM 0 and so reads M~ from the device; every other
  // thread has predicted it by now.
  const std::span<const std::uint64_t> m =
      t == 0 ? std::span<const std::uint64_t>(device_m_) : w.predicted_m;
  std::size_t end = 0;
  for (;;) {
    std::optional<std::size_t> k;
    {
      const std::lock_guard lock(mu_);
      if (failed_) return;
      k = splitter_.Claim(range);
      end = splitter_.Ranges()[range].end;
    }
    if (!k) break;
    LoadOperands(sim, steps_[*k], m);
    RunMmm(sim, n, samples_.empty() ? nullptr : samples_.data() + *k * spm * n);
    if (steps_[*k].dst == bignum::ExpSlot::kMont) {
      for (std::size_t i = 0; i < device_m_.size(); ++i) {
        device_m_[i] = sim.Peek(gen_.result[i]) & lane_mask_;
      }
    }
  }
  if (end < steps_.size()) {
    snapshot(/*entry=*/false);
  } else {
    // This simulator holds the state the next call starts from: any
    // range this thread steals from now on runs on the spare.
    w.ran_last = true;
    w.sim = active_threads_;
  }
  if (sink_ != nullptr) (*sink_)(begin * spm, end * spm);
}

void MmmcModExpRunner::Predict(Worker& w, std::size_t warm_step) const {
  using bignum::ExpSlot;
  const Alg2Predictor& predictor = *predictor_;
  const std::size_t s = predictor.Words();
  const std::size_t bits = gen_.x_in.size();
  w.registers.resize(bignum::ExpRegisterCount(steps_) * s);
  w.warm_x.assign(bits, 0);
  w.warm_y.assign(bits, 0);
  w.predicted_m.assign(bits, 0);
  const auto reg = [&](ExpSlot slot) {
    return w.registers.data() + static_cast<std::size_t>(slot) * s;
  };
  const bignum::ExpStep& warm = steps_[warm_step];
  for (std::size_t lane = 0; lane < bases_.size(); ++lane) {
    std::fill(w.registers.begin(), w.registers.end(), Word{0});
    WordMontgomery::ToWords(bases_[lane], {reg(ExpSlot::kBase), s});
    std::copy(r2_words_.begin(), r2_words_.end(), reg(ExpSlot::kR2));
    reg(ExpSlot::kOne)[0] = 1;
    reg(ExpSlot::kA)[0] = 1;
    // At least through MMM 0, which writes M~.
    for (std::size_t k = 0; k < std::max<std::size_t>(warm_step, 1); ++k) {
      const bignum::ExpStep& step = steps_[k];
      predictor.Multiply(reg(step.x), reg(step.y), reg(step.dst));
    }
    ScatterLane(reg(warm.x), lane, w.warm_x);
    ScatterLane(reg(warm.y), lane, w.warm_y);
    ScatterLane(reg(ExpSlot::kMont), lane, w.predicted_m);
  }
  w.predicted = true;
}

void MmmcModExpRunner::LoadOperands(rtl::BatchSimulator& sim,
                                    bignum::ExpStep step,
                                    std::span<const std::uint64_t> m) const {
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
  if (step.op == ExpOp::kMultiply) DriveWords(sim, gen_.y_in, m);
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

void MmmcModExpRunner::CheckBoundaries(std::size_t threads) const {
  const std::span<const MmmSplitter::Range> ranges = splitter_.Ranges();
  const auto snapshot_of = [&](std::size_t range, bool entry)
      -> const std::vector<std::uint64_t>* {
    for (std::size_t t = 0; t < threads; ++t) {
      const Worker& w = workers_[t];
      for (std::size_t i = 0; i < w.used; ++i) {
        if (w.snapshots[i].range == range && w.snapshots[i].entry == entry) {
          return &w.snapshots[i].nets;
        }
      }
    }
    return nullptr;
  };
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    const std::size_t begin = ranges[r].begin;
    if (begin == 0) continue;
    const auto fail = [begin](const char* what) {
      throw std::logic_error(std::string("MmmcModExpRunner: ") + what +
                             " at the cut before MMM " +
                             std::to_string(begin));
    };
    const std::vector<std::uint64_t>* entry = snapshot_of(r, true);
    const std::vector<std::uint64_t>* exit = nullptr;
    for (std::size_t p = 0; p < ranges.size(); ++p) {
      if (ranges[p].end == begin) exit = snapshot_of(p, false);
    }
    if (entry == nullptr || exit == nullptr) fail("a snapshot is missing");
    for (const rtl::Bus* bus : {&gen_.x_in, &gen_.y_in}) {
      for (const rtl::NetId net : *bus) {
        if ((*exit)[net] != (*entry)[net]) {
          fail("warm-up operands differ from the device's");
        }
      }
    }
    if (*exit != *entry) fail("net state after the warm-up differs");
  }
  for (std::size_t t = 0; t < threads; ++t) {
    if (workers_[t].predicted && workers_[t].predicted_m != device_m_) {
      throw std::logic_error(
          "MmmcModExpRunner: predicted M~ differs from the device's on thread " +
          std::to_string(t));
    }
  }
}

}  // namespace mont::core
