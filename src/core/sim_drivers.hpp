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
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bignum/biguint.hpp"
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

}  // namespace mont::core
