#include "core/engine.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bignum/gf2.hpp"
#include "bignum/montgomery.hpp"
#include "core/high_radix.hpp"
#include "core/interleaved.hpp"
#include "core/mmmc.hpp"
#include "core/netlist_gen.hpp"
#include "core/schedule.hpp"
#include "core/sim_drivers.hpp"

namespace mont::core {

using bignum::BigUInt;

const char* EngineFieldName(EngineField field) {
  return field == EngineField::kGfP ? "GF(p)" : "GF(2^m)";
}

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  squarings += other.squarings;
  multiplications += other.multiplications;
  mmm_invocations += other.mmm_invocations;
  paired_issues += other.paired_issues;
  single_issues += other.single_issues;
  engine_cycles += other.engine_cycles;
  paper_model_cycles += other.paper_model_cycles;
  cancelled += other.cancelled;
  return *this;
}

// ---------------------------------------------------------------------------
// MmmEngine base behaviour
// ---------------------------------------------------------------------------

namespace {

void CheckGfpModulus(const BigUInt& modulus, const char* who) {
  if (!modulus.IsOdd() || modulus <= BigUInt{1}) {
    throw std::invalid_argument(std::string(who) +
                                ": GF(p) modulus must be odd > 1");
  }
}

void CheckGf2Modulus(const BigUInt& f, const char* who) {
  if (f.BitLength() < 3 || !f.Bit(0)) {
    throw std::invalid_argument(std::string(who) +
                                ": GF(2^m) needs deg(f) >= 2 and f(0) = 1");
  }
}

/// R^2 reduced by the modulus, for R = 2^r_exponent (GF(p)).
BigUInt GfpMontFactor(const BigUInt& modulus, std::size_t r_exponent) {
  const BigUInt r = BigUInt::PowerOfTwo(r_exponent);
  return (r * r) % modulus;
}

/// x^(2(l+2)) mod f — the GF(2^m) domain-entry factor for R = x^(l+2).
BigUInt Gf2MontFactor(const BigUInt& f, std::size_t l) {
  return bignum::gf2::Mod(BigUInt::PowerOfTwo(2 * (l + 2)), f);
}

void CheckGf2Operands(const BigUInt& x, const BigUInt& y, std::size_t l,
                      const char* who) {
  if (x.BitLength() > l + 1 || y.BitLength() > l + 1) {
    throw std::invalid_argument(std::string(who) +
                                ": GF(2^m) operands must have degree <= m");
  }
}

}  // namespace

void ValidateEngineModulus(const BigUInt& modulus, EngineField field,
                           const char* who) {
  if (field == EngineField::kGf2) {
    CheckGf2Modulus(modulus, who);
  } else {
    CheckGfpModulus(modulus, who);
  }
}

std::vector<BigUInt> MmmEngine::MultiplyBatch(std::span<const BigUInt> xs,
                                              std::span<const BigUInt> ys,
                                              std::uint64_t* cycles) const {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("MmmEngine::MultiplyBatch: size mismatch");
  }
  std::vector<BigUInt> out;
  out.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out.push_back(Multiply(xs[i], ys[i], cycles));
  }
  return out;
}

BigUInt MmmEngine::ToMont(const BigUInt& x, std::uint64_t* cycles) const {
  return Multiply(Reduce(x), MontFactor(), cycles);
}

BigUInt MmmEngine::FromMont(const BigUInt& x, std::uint64_t* cycles) const {
  return Reduce(Multiply(x, BigUInt{1}, cycles));
}

BigUInt MmmEngine::Reduce(BigUInt v) const {
  if (field_ == EngineField::kGf2) {
    if (v.BitLength() > l_) v = bignum::gf2::Mod(v, modulus_);
    return v;
  }
  if (v >= modulus_) v = v % modulus_;
  return v;
}

EngineStats ScheduleStats(std::span<const bignum::ExpStep> steps,
                          std::size_t l) {
  EngineStats stats;
  for (const bignum::ExpStep& step : steps) {
    if (step.op == bignum::ExpOp::kSquare) ++stats.squarings;
    if (step.op == bignum::ExpOp::kMultiply) ++stats.multiplications;
  }
  stats.mmm_invocations = steps.size();
  if (!steps.empty()) {
    stats.paper_model_cycles =
        ExponentiationCycles(l, stats.squarings, stats.multiplications);
  }
  return stats;
}

BigUInt MmmEngine::ModExp(const BigUInt& base, const BigUInt& exponent,
                          EngineStats* stats) const {
  std::vector<bignum::ExpStep> steps;
  bignum::BuildExpSchedule(bignum::ExpMode::kAlg3, exponent, &steps);
  std::uint64_t cycles = 0;
  BigUInt result = RunSchedule(steps, Reduce(base), cycles);
  if (stats != nullptr) {
    EngineStats local = ScheduleStats(steps, l_);
    local.engine_cycles = cycles;
    *stats += local;
  }
  return Reduce(std::move(result));
}

BigUInt MmmEngine::RunSchedule(std::span<const bignum::ExpStep> steps,
                               const BigUInt& base,
                               std::uint64_t& cycles) const {
  bignum::ExpExecutor<BigUInt> run(steps, base, MontFactor(), BigUInt{1});
  run.Run([&](const BigUInt& x, const BigUInt& y) {
    return Multiply(x, y, &cycles);
  });
  return run.Result();
}

// ---------------------------------------------------------------------------
// Built-in backends
// ---------------------------------------------------------------------------

namespace {

/// "bit-serial" (GF(p) form) — the software Algorithm-2 reference;
/// charges the validated 3l+4 per multiplication.
class GfpBitSerialEngine final : public MmmEngine {
 public:
  explicit GfpBitSerialEngine(BigUInt modulus)
      : MmmEngine(modulus, EngineField::kGfP, modulus.BitLength(),
                  modulus << 1),
        ctx_(std::move(modulus)) {}

  std::string_view Name() const override { return "bit-serial"; }
  EngineCaps Caps() const override {
    return {.gf2 = true, .pairable_streams = true};
  }

  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   std::uint64_t* cycles) const override {
    if (cycles != nullptr) *cycles += MultiplyCyclesModel();
    return ctx_.MultiplyAlg2(x, y);
  }
  const BigUInt& MontFactor() const override { return ctx_.RSquaredModN(); }
  std::uint64_t MultiplyCyclesModel() const override {
    return MultiplyCycles(l());
  }

 private:
  bignum::BitSerialMontgomery ctx_;
};

class Gf2BitSerialEngine final : public MmmEngine {
 public:
  explicit Gf2BitSerialEngine(BigUInt f)
      : MmmEngine(f, EngineField::kGf2, bignum::gf2::Degree(f),
                  BigUInt::PowerOfTwo(bignum::gf2::Degree(f) + 1)),
        factor_(Gf2MontFactor(f, bignum::gf2::Degree(f))) {}

  std::string_view Name() const override { return "bit-serial"; }
  EngineCaps Caps() const override {
    return {.gf2 = true, .pairable_streams = true};
  }

  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   std::uint64_t* cycles) const override {
    CheckGf2Operands(x, y, l(), "bit-serial");
    if (cycles != nullptr) *cycles += MultiplyCyclesModel();
    return bignum::gf2::MontMul(x, y, Modulus());
  }
  const BigUInt& MontFactor() const override { return factor_; }
  std::uint64_t MultiplyCyclesModel() const override {
    return MultiplyCycles(l());
  }

 private:
  BigUInt factor_;
};

/// "word-mont" — the software word-level backend: bignum::WordMontgomery's
/// 64-bit-limb CIOS kernel (the one key generation runs on), and the only
/// backend whose chainable window is [0, N).  ModExp runs the kAlg3 steps
/// on the kernel's own word executor, with no BigUInt per step (the kernel
/// also has ExpMode::kFixedWindow, which WordMontgomery::ModExp uses).  The
/// cycle model counts the word MACs of a radix-2^32 coarsely integrated
/// scan, 2s^2+s for s 32-bit limbs, not array clocks.
class WordMontEngine final : public MmmEngine {
 public:
  explicit WordMontEngine(BigUInt modulus)
      : MmmEngine(modulus, EngineField::kGfP, modulus.BitLength(), modulus),
        ctx_(std::move(modulus)) {}

  std::string_view Name() const override { return "word-mont"; }
  EngineCaps Caps() const override { return {}; }

  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   std::uint64_t* cycles) const override {
    if (cycles != nullptr) *cycles += MultiplyCyclesModel();
    return ctx_.Multiply(x, y);
  }
  const BigUInt& MontFactor() const override { return ctx_.RSquaredModN(); }
  std::uint64_t MultiplyCyclesModel() const override {
    const std::uint64_t s = ctx_.LimbCount();
    return 2 * s * s + s;
  }

 private:
  BigUInt RunSchedule(std::span<const bignum::ExpStep> steps,
                      const BigUInt& base,
                      std::uint64_t& cycles) const override {
    cycles += steps.size() * MultiplyCyclesModel();
    return ctx_.RunSchedule(steps, base);
  }

  bignum::WordMontgomery ctx_;
};

/// "mmmc" — the paper's cycle-accurate behavioural array model (dual
/// field); every multiplication is simulated clock edge by clock edge and
/// the measured 3l+4 is what Multiply reports.
class MmmcEngine final : public MmmEngine {
 public:
  MmmcEngine(BigUInt modulus, EngineField field)
      : MmmEngine(modulus, field,
                  field == EngineField::kGf2 ? bignum::gf2::Degree(modulus)
                                             : modulus.BitLength(),
                  field == EngineField::kGf2
                      ? BigUInt::PowerOfTwo(bignum::gf2::Degree(modulus) + 1)
                      : modulus << 1),
        factor_(field == EngineField::kGf2
                    ? Gf2MontFactor(modulus, bignum::gf2::Degree(modulus))
                    : GfpMontFactor(modulus, modulus.BitLength() + 2)),
        circuit_(std::move(modulus), field == EngineField::kGf2
                                         ? FieldMode::kGf2
                                         : FieldMode::kGfP) {}

  std::string_view Name() const override { return "mmmc"; }
  EngineCaps Caps() const override {
    return {.gf2 = true, .pairable_streams = true, .cycle_accurate = true};
  }

  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   std::uint64_t* cycles) const override {
    std::lock_guard<std::mutex> lk(mu_);  // one array, one product in flight
    std::uint64_t measured = 0;
    BigUInt out = circuit_.Multiply(x, y, &measured);
    if (cycles != nullptr) *cycles += measured;
    return out;
  }
  const BigUInt& MontFactor() const override { return factor_; }
  std::uint64_t MultiplyCyclesModel() const override {
    return MultiplyCycles(l());
  }

 private:
  BigUInt factor_;
  mutable std::mutex mu_;
  mutable Mmmc circuit_;
};

/// "interleaved" — the dual-channel (C-slow) array.  A solo Multiply runs
/// on channel A (done after 3l+4); the dual-modulus pairing capability is
/// what the service's scheduler exploits.
class InterleavedEngine final : public MmmEngine {
 public:
  explicit InterleavedEngine(BigUInt modulus)
      : MmmEngine(modulus, EngineField::kGfP, modulus.BitLength(),
                  modulus << 1),
        factor_(GfpMontFactor(modulus, modulus.BitLength() + 2)),
        circuit_(std::move(modulus)) {}

  std::string_view Name() const override { return "interleaved"; }
  EngineCaps Caps() const override {
    return {.dual_modulus = true, .pairable_streams = true};
  }

  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   std::uint64_t* cycles) const override {
    std::lock_guard<std::mutex> lk(mu_);
    if (cycles != nullptr) *cycles += MultiplyCyclesModel();
    return circuit_.MultiplyPair(x, y, BigUInt{0}, BigUInt{0}).a;
  }
  const BigUInt& MontFactor() const override { return factor_; }
  std::uint64_t MultiplyCyclesModel() const override {
    return MultiplyCycles(l());  // channel A's latency; pairs cost 3l+5
  }

 private:
  BigUInt factor_;
  mutable std::mutex mu_;
  mutable InterleavedMmmc circuit_;
};

/// "high-radix" — the radix-2^alpha word-serial datapath (§2's
/// Batina–Muurling direction), alpha from EngineOptions.
class HighRadixEngine final : public MmmEngine {
 public:
  HighRadixEngine(BigUInt modulus, std::size_t alpha)
      : MmmEngine(modulus, EngineField::kGfP, modulus.BitLength(),
                  modulus << 1),
        mult_(std::move(modulus), alpha) {}

  std::string_view Name() const override { return "high-radix"; }
  EngineCaps Caps() const override { return {}; }

  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   std::uint64_t* cycles) const override {
    if (cycles != nullptr) *cycles += MultiplyCyclesModel();
    return mult_.Multiply(x, y);
  }
  const BigUInt& MontFactor() const override { return mult_.RSquaredModN(); }
  std::uint64_t MultiplyCyclesModel() const override {
    return mult_.MultiplyCycles();
  }

 private:
  HighRadixMultiplier mult_;
};

/// "blum-paar" — the comparison design's functional model: radix-2
/// Montgomery with the non-optimal R = 2^(l+3) (one extra iteration, two
/// extra cycles).  baseline::BlumPaarRadix2 delegates its arithmetic here;
/// the PE netlist/timing side stays in src/baseline.
class BlumPaarEngine final : public MmmEngine {
 public:
  explicit BlumPaarEngine(BigUInt modulus)
      : MmmEngine(modulus, EngineField::kGfP, modulus.BitLength(),
                  modulus << 1),
        factor_(GfpMontFactor(modulus, modulus.BitLength() + 3)) {}

  std::string_view Name() const override { return "blum-paar"; }
  EngineCaps Caps() const override { return {}; }

  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   std::uint64_t* cycles) const override {
    if (x >= OperandBound() || y >= OperandBound()) {
      throw std::invalid_argument("blum-paar: operands must be < 2N");
    }
    if (cycles != nullptr) *cycles += MultiplyCyclesModel();
    BigUInt t;
    for (std::size_t i = 0; i < l() + 3; ++i) {
      const bool xi = x.Bit(i);
      const bool mi = t.Bit(0) ^ (xi && y.Bit(0));
      if (xi) t += y;
      if (mi) t += Modulus();
      t >>= 1;
    }
    return t;
  }
  const BigUInt& MontFactor() const override { return factor_; }
  std::uint64_t MultiplyCyclesModel() const override { return 3 * l() + 6; }

 private:
  BigUInt factor_;
};

/// "netlist-sim" — the generated gate-level MMMC driven through the
/// event simulator: the lowest-fidelity rung of the validation chain as a
/// drop-in backend.  MultiplyBatch packs up to 64 operand pairs per
/// simulation pass on the 64-lane batch engine.
class NetlistSimEngine final : public MmmEngine {
 public:
  NetlistSimEngine(BigUInt modulus, EngineField field)
      : MmmEngine(modulus, field,
                  field == EngineField::kGf2 ? bignum::gf2::Degree(modulus)
                                             : modulus.BitLength(),
                  field == EngineField::kGf2
                      ? BigUInt::PowerOfTwo(bignum::gf2::Degree(modulus) + 1)
                      : modulus << 1),
        factor_(field == EngineField::kGf2
                    ? Gf2MontFactor(modulus, bignum::gf2::Degree(modulus))
                    : GfpMontFactor(modulus, modulus.BitLength() + 2)),
        gen_(BuildMmmcNetlist(l(), /*dual_field=*/field == EngineField::kGf2)),
        driver_(gen_) {
    driver_.LoadModulus(Modulus());
    if (Field() == EngineField::kGf2) driver_.SelectField(false);
  }

  std::string_view Name() const override { return "netlist-sim"; }
  EngineCaps Caps() const override {
    return {.gf2 = true,
            .pairable_streams = true,
            .batch_lanes = rtl::BatchSimulator::kLanes,
            .cycle_accurate = true};
  }

  BigUInt Multiply(const BigUInt& x, const BigUInt& y,
                   std::uint64_t* cycles) const override {
    CheckOperands(x, y);
    std::lock_guard<std::mutex> lk(mu_);
    BigUInt out;
    std::uint64_t measured = 0;
    if (!driver_.TryMultiply(x, y, &out, &measured)) {
      throw std::runtime_error("netlist-sim: DONE never arrived (hung FSM)");
    }
    if (cycles != nullptr) *cycles += measured;
    return out;
  }

  std::vector<BigUInt> MultiplyBatch(std::span<const BigUInt> xs,
                                     std::span<const BigUInt> ys,
                                     std::uint64_t* cycles) const override {
    if (xs.size() != ys.size()) {
      throw std::invalid_argument("netlist-sim: MultiplyBatch size mismatch");
    }
    for (std::size_t i = 0; i < xs.size(); ++i) CheckOperands(xs[i], ys[i]);
    std::lock_guard<std::mutex> lk(mu_);
    if (batch_driver_ == nullptr) {
      batch_driver_ = std::make_unique<MmmcBatchSimDriver>(gen_);
      batch_driver_->LoadModulus(Modulus());
      if (Field() == EngineField::kGf2) batch_driver_->SelectField(false);
    }
    std::vector<BigUInt> out;
    out.reserve(xs.size());
    for (std::size_t at = 0; at < xs.size(); at += rtl::BatchSimulator::kLanes) {
      const std::size_t count =
          std::min(xs.size() - at, rtl::BatchSimulator::kLanes);
      const std::vector<BigUInt> lane_x(xs.begin() + at,
                                        xs.begin() + at + count);
      const std::vector<BigUInt> lane_y(ys.begin() + at,
                                        ys.begin() + at + count);
      std::vector<BigUInt> lane_out;
      std::uint64_t measured = 0;
      if (!batch_driver_->TryMultiply(lane_x, lane_y, &lane_out, &measured)) {
        throw std::runtime_error("netlist-sim: batch DONE never arrived");
      }
      if (cycles != nullptr) *cycles += measured;  // one pass, 64 lanes
      for (BigUInt& v : lane_out) out.push_back(std::move(v));
    }
    return out;
  }

  const BigUInt& MontFactor() const override { return factor_; }
  std::uint64_t MultiplyCyclesModel() const override {
    return MultiplyCycles(l());
  }

 private:
  void CheckOperands(const BigUInt& x, const BigUInt& y) const {
    if (x >= OperandBound() || y >= OperandBound()) {
      throw std::invalid_argument(
          "netlist-sim: operands outside the chainable window");
    }
  }

  BigUInt factor_;
  MmmcNetlist gen_;
  mutable std::mutex mu_;
  mutable MmmcSimDriver driver_;
  mutable std::unique_ptr<MmmcBatchSimDriver> batch_driver_;
};

void RequireGfp(const EngineOptions& options, const char* name) {
  if (options.field != EngineField::kGfP) {
    throw std::invalid_argument(std::string("MakeEngine: backend '") + name +
                                "' does not support GF(2^m)");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

EngineRegistry::EngineRegistry() {
  const auto check_modulus = [](const BigUInt& modulus,
                                const EngineOptions& options,
                                const char* who) {
    ValidateEngineModulus(modulus, options.field, who);
  };

  Register("bit-serial",
           {"software Algorithm 2 (GF(p)) / carry-less twin (GF(2^m)), "
            "cycles charged at the validated 3l+4",
            {.gf2 = true, .pairable_streams = true},
            [check_modulus](BigUInt modulus, const EngineOptions& options)
                -> std::unique_ptr<MmmEngine> {
              check_modulus(modulus, options, "bit-serial");
              if (options.field == EngineField::kGf2) {
                return std::make_unique<Gf2BitSerialEngine>(std::move(modulus));
              }
              return std::make_unique<GfpBitSerialEngine>(std::move(modulus));
            }});
  Register("word-mont",
           {"word-level CIOS software kernel (64-bit limbs), window [0, N)",
            {},
            [](BigUInt modulus, const EngineOptions& options) {
              RequireGfp(options, "word-mont");
              CheckGfpModulus(modulus, "word-mont");
              return std::make_unique<WordMontEngine>(std::move(modulus));
            }});
  Register("mmmc",
           {"cycle-accurate behavioural systolic array (paper Fig. 3, dual "
            "field), cycles measured per clock edge",
            {.gf2 = true, .pairable_streams = true, .cycle_accurate = true},
            [check_modulus](BigUInt modulus, const EngineOptions& options) {
              check_modulus(modulus, options, "mmmc");
              return std::make_unique<MmmcEngine>(std::move(modulus),
                                                  options.field);
            }});
  Register("interleaved",
           {"dual-channel (C-slow) array; bonds two equal-length jobs at "
            "3l+5 per product pair",
            {.dual_modulus = true, .pairable_streams = true},
            [](BigUInt modulus, const EngineOptions& options) {
              RequireGfp(options, "interleaved");
              CheckGfpModulus(modulus, "interleaved");
              return std::make_unique<InterleavedEngine>(std::move(modulus));
            }});
  Register("high-radix",
           {"radix-2^alpha word-serial pipeline (alpha from EngineOptions)",
            {},
            [](BigUInt modulus, const EngineOptions& options) {
              RequireGfp(options, "high-radix");
              CheckGfpModulus(modulus, "high-radix");
              return std::make_unique<HighRadixEngine>(std::move(modulus),
                                                       options.alpha);
            }});
  Register("blum-paar",
           {"Blum-Paar radix-2 comparison design, R = 2^(l+3) (one extra "
            "iteration)",
            {},
            [](BigUInt modulus, const EngineOptions& options) {
              RequireGfp(options, "blum-paar");
              CheckGfpModulus(modulus, "blum-paar");
              return std::make_unique<BlumPaarEngine>(std::move(modulus));
            }});
  Register("netlist-sim",
           {"generated gate-level MMMC under the event simulator (dual "
            "field, 64 batch lanes)",
            {.gf2 = true,
             .pairable_streams = true,
             .batch_lanes = rtl::BatchSimulator::kLanes,
             .cycle_accurate = true},
            [check_modulus](BigUInt modulus, const EngineOptions& options) {
              check_modulus(modulus, options, "netlist-sim");
              return std::make_unique<NetlistSimEngine>(std::move(modulus),
                                                        options.field);
            }});
}

EngineRegistry& EngineRegistry::Global() {
  static EngineRegistry registry;
  return registry;
}

void EngineRegistry::Register(std::string name, Entry entry) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [existing, unused] : entries_) {
    if (existing == name) {
      throw std::invalid_argument("EngineRegistry: duplicate backend '" +
                                  name + "'");
    }
  }
  entries_.emplace_back(std::move(name), std::move(entry));
}

const EngineRegistry::Entry* EngineRegistry::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [existing, entry] : entries_) {
    if (existing == name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lk(mu_);
    names.reserve(entries_.size());
    for (const auto& [name, unused] : entries_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::unique_ptr<MmmEngine> EngineRegistry::Make(
    std::string_view name, BigUInt modulus, const EngineOptions& options) const {
  const Entry* entry = Find(name);
  if (entry == nullptr) {
    std::ostringstream message;
    message << "MakeEngine: unknown backend '" << name << "' (registered:";
    for (const std::string& known : Names()) message << ' ' << known;
    message << ')';
    throw std::invalid_argument(message.str());
  }
  if (options.field == EngineField::kGf2 && !entry->caps.gf2) {
    throw std::invalid_argument(std::string("MakeEngine: backend '") +
                                std::string(name) +
                                "' does not support GF(2^m)");
  }
  return entry->factory(std::move(modulus), options);
}

std::unique_ptr<MmmEngine> MakeEngine(std::string_view name, BigUInt modulus,
                                      const EngineOptions& options) {
  return EngineRegistry::Global().Make(name, std::move(modulus), options);
}

}  // namespace mont::core
