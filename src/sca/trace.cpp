#include "sca/trace.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
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
    : count_(count), samples_(samples), data_(data.begin(), data.end()) {
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

namespace {

/// The nets a capture with `options` counts; nullopt for every net.
std::optional<std::vector<rtl::NetId>> TrackedNets(
    const core::MmmcNetlist& gen, const CaptureOptions& options) {
  if (options.datapath_only && options.secret_cone_only) {
    throw std::invalid_argument(
        "GateLevelCapture: datapath_only and secret_cone_only are exclusive");
  }
  if (!options.datapath_only && !options.secret_cone_only) return std::nullopt;
  std::vector<rtl::NetId> tracked;
  if (options.datapath_only) {
    for (const rtl::Bus* bus : {&gen.t_probe, &gen.c0_probe, &gen.c1_probe}) {
      tracked.insert(tracked.end(), bus->begin(), bus->end());
    }
  } else {
    const analysis::TaintReport taint = analysis::AnalyzeTaint(*gen.netlist);
    for (std::size_t id = 0; id < gen.netlist->NodeCount(); ++id) {
      if (analysis::DependsOnSecret(taint.LabelOf(static_cast<rtl::NetId>(id)))) {
        tracked.push_back(static_cast<rtl::NetId>(id));
      }
    }
  }
  return tracked;
}

}  // namespace

GateLevelCapture::GateLevelCapture(BigUInt modulus,
                                   const CaptureOptions& options)
    : options_(options),
      modulus_(std::move(modulus)),
      gen_(core::BuildMmmcNetlist(
          options.field == core::FieldMode::kGf2
              ? bignum::gf2::Degree(modulus_)
              : modulus_.BitLength(),
          /*dual_field=*/options.field == core::FieldMode::kGf2)),
      compiled_(*gen_.netlist),
      tracked_(TrackedNets(gen_, options)),
      // BitSerialMontgomery's constructor rejects even or trivial moduli
      // (a GF(2^m) polynomial with f(0) = 1 is odd, so it passes too); the
      // netlist generator rejects l < 2.
      ctx_(modulus_),
      runner_(gen_, modulus_, [this] { return MakeSimulator(); }),
      noise_rng_(options.noise_seed) {}

std::unique_ptr<rtl::BatchSimulator> GateLevelCapture::MakeSimulator() const {
  auto sim = std::make_unique<rtl::BatchSimulator>(compiled_);
  core::DriveBusAllLanes(*sim, gen_.n_in, modulus_);
  if (gen_.fsel != rtl::kNoNet) {
    sim->SetInputAll(gen_.fsel, options_.field == core::FieldMode::kGfP);
  }
  sim->SetInputAll(gen_.start, false);
  sim->Settle();
  if (tracked_) {
    sim->EnableToggleCapture(*tracked_);
  } else {
    sim->EnableToggleCapture();
  }
  return sim;
}

template <typename RunPass>
TraceSet GateLevelCapture::Capture(std::size_t count, std::size_t mmms,
                                   RunPass run_pass) {
  if (count == 0) return {};
  const std::size_t samples = mmms * SamplesPerMultiplication();
  // Every sample is written by a transpose below, so neither buffer is
  // cleared first.
  TraceSet out(count, samples);
  const std::size_t pass_size =
      samples * std::min(rtl::BatchSimulator::kLanes, count);
  if (pass_.size() < pass_size) pass_.resize(pass_size);
  const std::uint32_t* const pass = pass_.data();
  for (std::size_t at = 0; at < count; at += rtl::BatchSimulator::kLanes) {
    const std::size_t n = std::min(rtl::BatchSimulator::kLanes, count - at);
    // Sample-major (sample s of lane k at s*n + k) to row-major, in
    // blocks of 64 samples so the reads stay in cache.
    const auto transpose = [&](std::size_t begin, std::size_t end) {
      for (std::size_t s0 = begin; s0 < end; s0 += 64) {
        const std::size_t s1 = std::min(end, s0 + 64);
        for (std::size_t k = 0; k < n; ++k) {
          double* row = out.data_.data() + (at + k) * samples;
          for (std::size_t s = s0; s < s1; ++s) row[s] = pass[s * n + k];
        }
      }
    };
    run_pass(at, n, std::span<std::uint32_t>(pass_.data(), samples * n),
             transpose);
  }
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
  return Capture(xs.size(), 1, [&](std::size_t at, std::size_t n,
                                   std::span<std::uint32_t> samples,
                                   const auto& transpose) {
    runner_.Multiply(xs.subspan(at, n), ys.subspan(at, n), samples);
    transpose(0, SamplesPerMultiplication());
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
  const std::size_t windows = core::AffinityCpuCount();
  return Capture(bases.size(), core::MmmcModExpRunner::MmmCount(exponent),
                 [&](std::size_t at, std::size_t n,
                     std::span<std::uint32_t> samples,
                     const auto& transpose) {
                   runner_.Run(bases.subspan(at, n), exponent, windows,
                               samples, transpose);
                 });
}

}  // namespace mont::sca
