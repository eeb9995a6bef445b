#include "sca/trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/taint.hpp"
#include "bignum/gf2.hpp"
#include "core/sim_drivers.hpp"
#include "sca/analysis.hpp"

namespace mont::sca {

using bignum::BigUInt;

// ---------------------------------------------------------------------------
// TraceSet
// ---------------------------------------------------------------------------

TraceSet::TraceSet(std::size_t count, std::size_t samples,
                   std::vector<double> data)
    : count_(count), samples_(samples), data_(std::move(data)) {
  if (data_.size() != count * samples) {
    throw std::invalid_argument("TraceSet: data size is not count * samples");
  }
}

void TraceSet::Append(std::span<const double> trace) {
  if (count_ == 0) {
    samples_ = trace.size();
  } else if (trace.size() != samples_) {
    throw std::invalid_argument("TraceSet::Append: sample-count mismatch");
  }
  data_.insert(data_.end(), trace.begin(), trace.end());
  ++count_;
}

void TraceSet::Column(std::size_t sample, std::vector<double>& out) const {
  if (sample >= samples_) {
    throw std::out_of_range("TraceSet::Column: sample out of range");
  }
  out.resize(count_);
  for (std::size_t i = 0; i < count_; ++i) out[i] = At(i, sample);
}

TraceSet TraceSet::Head(std::size_t count) const {
  if (count > count_) {
    throw std::out_of_range("TraceSet::Head: count exceeds trace count");
  }
  TraceSet out;
  for (std::size_t i = 0; i < count; ++i) out.Append(Trace(i));
  return out;
}

std::vector<double> TraceSet::MeanTrace() const {
  std::vector<double> mean(samples_, 0.0);
  if (count_ == 0) return mean;
  for (std::size_t i = 0; i < count_; ++i) {
    for (std::size_t j = 0; j < samples_; ++j) mean[j] += At(i, j);
  }
  for (double& v : mean) v /= static_cast<double>(count_);
  return mean;
}

double TraceSet::TraceEnergy(std::size_t trace) const {
  double sum = 0;
  for (const double v : Trace(trace)) sum += v;
  return sum;
}

double GaussianSample(bignum::Xoshiro256& rng) {
  // Box–Muller on two uniforms in (0, 1]; 2^-64 offsets keep log() finite.
  const double u1 =
      (static_cast<double>(rng.Next() >> 11) + 1.0) / 9007199254740993.0;
  const double u2 =
      static_cast<double>(rng.Next() >> 11) / 9007199254740992.0;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

void TraceSet::AddGaussianNoise(double sigma, bignum::Xoshiro256& rng) {
  if (sigma <= 0) return;
  for (double& v : data_) v += sigma * GaussianSample(rng);
}

void TraceSet::AddGaussianNoise(double sigma, std::uint64_t seed) {
  bignum::Xoshiro256 rng(seed);
  AddGaussianNoise(sigma, rng);
}

TraceSet TraceSet::Compress(std::size_t factor) const {
  if (factor == 0) {
    throw std::invalid_argument("TraceSet::Compress: factor must be >= 1");
  }
  TraceSet out;
  std::vector<double> row;
  for (std::size_t i = 0; i < count_; ++i) {
    row.clear();
    for (std::size_t j = 0; j < samples_; j += factor) {
      double sum = 0;
      for (std::size_t k = j; k < std::min(j + factor, samples_); ++k) {
        sum += At(i, k);
      }
      row.push_back(sum);
    }
    out.Append(row);
  }
  return out;
}

TraceSet TraceSet::AlignTo(std::span<const double> reference,
                           std::size_t max_shift) const {
  if (reference.size() != samples_) {
    throw std::invalid_argument("TraceSet::AlignTo: reference length mismatch");
  }
  TraceSet out;
  std::vector<double> shifted(samples_);
  std::vector<double> best(samples_);
  const auto shift_index = [this](std::ptrdiff_t i) {
    // Edge-padded source index.
    if (i < 0) return std::size_t{0};
    if (static_cast<std::size_t>(i) >= samples_) return samples_ - 1;
    return static_cast<std::size_t>(i);
  };
  for (std::size_t t = 0; t < count_; ++t) {
    double best_corr = -2;
    const std::span<const double> trace = Trace(t);
    for (std::ptrdiff_t s = -static_cast<std::ptrdiff_t>(max_shift);
         s <= static_cast<std::ptrdiff_t>(max_shift); ++s) {
      for (std::size_t j = 0; j < samples_; ++j) {
        shifted[j] = trace[shift_index(static_cast<std::ptrdiff_t>(j) + s)];
      }
      const double corr = PearsonCorrelation(reference, shifted);
      if (corr > best_corr) {
        best_corr = corr;
        best = shifted;
      }
    }
    out.Append(best);
  }
  return out;
}

double WelchTPeak(const TraceSet& a, const TraceSet& b) {
  if (a.Samples() != b.Samples()) {
    throw std::invalid_argument("WelchTPeak: sample-count mismatch");
  }
  double peak = 0;
  std::vector<double> column_a, column_b;
  for (std::size_t s = 0; s < a.Samples(); ++s) {
    a.Column(s, column_a);
    b.Column(s, column_b);
    peak = std::max(peak, std::abs(WelchT(column_a, column_b)));
  }
  return peak;
}

// ---------------------------------------------------------------------------
// GateLevelCapture
// ---------------------------------------------------------------------------

GateLevelCapture::GateLevelCapture(BigUInt modulus,
                                   const CaptureOptions& options)
    : options_(options),
      modulus_(std::move(modulus)),
      gen_(core::BuildMmmcNetlist(
          options.field == core::FieldMode::kGf2
              ? bignum::gf2::Degree(modulus_)
              : modulus_.BitLength(),
          /*dual_field=*/options.field == core::FieldMode::kGf2)),
      sim_(std::make_unique<rtl::BatchSimulator>(*gen_.netlist)),
      ctx_(modulus_),
      noise_rng_(options.noise_seed) {
  // BitSerialMontgomery's constructor has already rejected even or trivial
  // moduli (a GF(2^m) polynomial with f(0) = 1 is odd, so it passes too);
  // the netlist generator rejects l < 2.
  core::DriveBusAllLanes(*sim_, gen_.n_in, modulus_);
  if (gen_.fsel != rtl::kNoNet) {
    sim_->SetInputAll(gen_.fsel, options_.field == core::FieldMode::kGfP);
  }
  sim_->SetInputAll(gen_.start, false);
  sim_->Settle();
  if (options_.datapath_only && options_.secret_cone_only) {
    throw std::invalid_argument(
        "GateLevelCapture: datapath_only and secret_cone_only are exclusive");
  }
  if (options_.datapath_only) {
    std::vector<rtl::NetId> tracked;
    for (const rtl::Bus* bus : {&gen_.t_probe, &gen_.c0_probe, &gen_.c1_probe}) {
      tracked.insert(tracked.end(), bus->begin(), bus->end());
    }
    sim_->EnableToggleCapture(tracked);
  } else if (options_.secret_cone_only) {
    const analysis::TaintReport taint = analysis::AnalyzeTaint(*gen_.netlist);
    std::vector<rtl::NetId> tracked;
    for (std::size_t id = 0; id < gen_.netlist->NodeCount(); ++id) {
      if (analysis::DependsOnSecret(taint.LabelOf(static_cast<rtl::NetId>(id)))) {
        tracked.push_back(static_cast<rtl::NetId>(id));
      }
    }
    sim_->EnableToggleCapture(tracked);
  } else {
    sim_->EnableToggleCapture();
  }
}

std::vector<BigUInt> GateLevelCapture::LaneResults(std::size_t lanes) const {
  return sim_->PeekWideLanes(gen_.result, lanes);
}

void GateLevelCapture::RunOneMmm(const std::vector<BigUInt>& xs,
                                 const std::vector<BigUInt>& ys,
                                 std::span<std::uint32_t>& out) {
  if (out.size() < SamplesPerMultiplication() * xs.size()) {
    throw std::logic_error("GateLevelCapture: sample buffer overrun");
  }
  core::MmmcBatchSimDriver driver(gen_, *sim_);
  const auto record = [&] {
    std::copy_n(sim_->ToggleCounts().begin(), xs.size(), out.begin());
    out = out.subspan(xs.size());
  };
  driver.Start(xs, ys);  // START edge: operand load — sample 0 of this MMM
  record();
  for (std::size_t cycle = 1; cycle < SamplesPerMultiplication(); ++cycle) {
    if (driver.AllDone()) {
      throw std::runtime_error("GateLevelCapture: DONE before 3l+4 cycles");
    }
    driver.Tick();
    record();
  }
  if (!driver.AllDone()) {
    throw std::runtime_error("GateLevelCapture: DONE never arrived");
  }
  // Drain OUT -> IDLE so the next START is sampled from IDLE.  The drain
  // edge is control-only housekeeping between multiplications and is not
  // part of any MMM's 3l+4-sample window.
  driver.Tick();
}

template <typename RunPass>
TraceSet GateLevelCapture::Capture(std::size_t count, std::size_t mmms,
                                   RunPass run_pass) {
  if (count == 0) return {};
  const std::size_t samples = mmms * SamplesPerMultiplication();
  std::vector<double> data(count * samples);
  std::vector<std::uint32_t> pass(
      samples * std::min(rtl::BatchSimulator::kLanes, count));
  for (std::size_t at = 0; at < count; at += rtl::BatchSimulator::kLanes) {
    const std::size_t n = std::min(rtl::BatchSimulator::kLanes, count - at);
    std::span<std::uint32_t> out(pass.data(), samples * n);
    run_pass(at, n, out);
    if (!out.empty()) {
      throw std::logic_error("GateLevelCapture: pass sample count mismatch");
    }
    // Sample-major (sample s of lane k at s*n + k) to row-major, in
    // blocks of 64 samples so the reads stay in cache.
    for (std::size_t s0 = 0; s0 < samples; s0 += 64) {
      const std::size_t s1 = std::min(samples, s0 + 64);
      for (std::size_t k = 0; k < n; ++k) {
        double* row = data.data() + (at + k) * samples;
        for (std::size_t s = s0; s < s1; ++s) row[s] = pass[s * n + k];
      }
    }
  }
  TraceSet out(count, samples, std::move(data));
  out.AddGaussianNoise(options_.noise_sigma, noise_rng_);
  return out;
}

TraceSet GateLevelCapture::CaptureMultiplications(
    std::span<const BigUInt> xs, std::span<const BigUInt> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument(
        "GateLevelCapture::CaptureMultiplications: size mismatch");
  }
  const BigUInt bound = options_.field == core::FieldMode::kGf2
                            ? BigUInt::PowerOfTwo(gen_.l + 1)
                            : (modulus_ << 1);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] >= bound || ys[i] >= bound) {
      throw std::invalid_argument(
          "GateLevelCapture::CaptureMultiplications: operand outside window");
    }
  }
  std::vector<BigUInt> chunk_x, chunk_y;
  return Capture(xs.size(), 1, [&](std::size_t at, std::size_t n,
                                   std::span<std::uint32_t>& out) {
    chunk_x.assign(xs.begin() + at, xs.begin() + at + n);
    chunk_y.assign(ys.begin() + at, ys.begin() + at + n);
    RunOneMmm(chunk_x, chunk_y, out);
  });
}

TraceSet GateLevelCapture::CaptureModExps(std::span<const BigUInt> bases,
                                          const BigUInt& exponent) {
  if (options_.field != core::FieldMode::kGfP) {
    throw std::logic_error(
        "GateLevelCapture::CaptureModExps: GF(p) circuits only");
  }
  if (exponent.IsZero()) {
    throw std::invalid_argument(
        "GateLevelCapture::CaptureModExps: exponent must be nonzero");
  }
  for (const BigUInt& base : bases) {
    if (base >= modulus_) {
      throw std::invalid_argument(
          "GateLevelCapture::CaptureModExps: base must be < modulus");
    }
  }
  // pre-computation + (bits-1) squarings + (popcount-1) multiplies + post
  const std::size_t mmms = exponent.BitLength() + exponent.PopCount();
  return Capture(bases.size(), mmms, [&](std::size_t at, std::size_t n,
                                         std::span<std::uint32_t>& out) {
    std::vector<BigUInt> x(n), y(n);
    // Pre-computation: M~ = Mont(M, R^2) — §4.5's first MMM.
    for (std::size_t k = 0; k < n; ++k) {
      x[k] = bases[at + k];
      y[k] = ctx_.RSquaredModN();
    }
    RunOneMmm(x, y, out);
    const std::vector<BigUInt> m_mont = LaneResults(n);
    std::vector<BigUInt> a = m_mont;
    // Left-to-right scan: every intermediate feeds back from the device's
    // own RESULT bus, so the traces are of a self-contained execution.
    for (std::size_t i = exponent.BitLength() - 1; i-- > 0;) {
      RunOneMmm(a, a, out);
      a = LaneResults(n);
      if (exponent.Bit(i)) {
        RunOneMmm(a, m_mont, out);
        a = LaneResults(n);
      }
    }
    // Post-processing: Mont(A, 1) strips R.
    std::fill(y.begin(), y.end(), BigUInt{1});
    RunOneMmm(a, y, out);
  });
}

}  // namespace mont::sca
