// interleaved.hpp — dual-channel (C-slow) operation of the systolic array.
//
// On the 2i+j schedule each cell does useful work only every second cycle;
// the paper's MUL1/MUL2 alternation is exactly that idle phase.  This
// module fills the idle phase with a second, independent multiplication:
// channel A occupies even compute parities, channel B (started one cycle
// later) the odd ones.  Shared state (T, carries, x/m pipes) naturally
// time-multiplexes between the channels because every consumer reads
// values produced exactly one cycle earlier — the single exception is the
// leftmost cell's two top bits, whose two-cycle self-loop needs one extra
// register per channel.  Extra hardware: a second X register, a second
// Y register with a phase-driven mux per cell, a second result register —
// and throughput doubles: two products in 3l+5 cycles instead of 6l+8.
//
// The natural client is right-to-left exponentiation, where the square
// S <- S^2 and the conditional multiply A <- A*S of one iteration are
// independent: InterleavedExponentiator executes the shared
// ExpMode::kRightToLeft schedule (bignum/exp_schedule.hpp) and issues such
// adjacent steps as an (A, B) pair, cutting exponentiation latency by
// ~1.5x over the paper's Algorithm 3 on the same array area (quantified in
// bench_interleaved).
#pragma once

#include <cstdint>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "core/engine.hpp"

namespace mont::core {

/// Cycle-accurate dual-channel Montgomery multiplier (GF(p) only).
///
/// The two channels normally share one modulus, but since the modulus
/// enters each cell only through the n_j AND gate — on the same
/// phase-driven mux cadence as the Y operand — a second N register per
/// cell lets the channels serve two *different* odd moduli of equal bit
/// length (e.g. the p- and q-halves of one RSA-CRT operation).  The
/// dual-modulus constructor models exactly that: one array, two
/// independent modular multiplications per 3l+5 cycles.
class InterleavedMmmc {
 public:
  explicit InterleavedMmmc(bignum::BigUInt modulus);
  /// Dual-modulus form: channel A reduces modulo `modulus_a`, channel B
  /// modulo `modulus_b`.  Both must be odd, > 1 and of equal bit length
  /// (the cell count is shared); throws std::invalid_argument otherwise.
  InterleavedMmmc(bignum::BigUInt modulus_a, bignum::BigUInt modulus_b);

  std::size_t l() const { return l_; }
  const bignum::BigUInt& Modulus() const { return modulus_[0]; }
  /// Per-channel modulus (channel 0 = A, 1 = B).
  const bignum::BigUInt& Modulus(std::size_t channel) const {
    return modulus_[channel];
  }

  struct PairResult {
    bignum::BigUInt a;       // x_a * y_a * R^-1 mod 2N_a
    bignum::BigUInt b;       // x_b * y_b * R^-1 mod 2N_b
    std::uint64_t cycles = 0;  // total, load to last DONE (3l+5)
  };

  /// Runs the two independent multiplications concurrently.
  /// Channel operands must be < 2N of their channel's modulus.
  PairResult MultiplyPair(const bignum::BigUInt& x_a,
                          const bignum::BigUInt& y_a,
                          const bignum::BigUInt& x_b,
                          const bignum::BigUInt& y_b);

  /// Cycle count for one pair: channel B finishes one cycle after A.
  static std::uint64_t PairCycles(std::size_t l) { return 3 * l + 5; }

 private:
  bignum::BigUInt modulus_[2];  // per-channel modulus (usually identical)
  bignum::BigUInt two_n_[2];
  std::size_t l_;
  std::vector<std::uint8_t> n_bits_[2];
};

/// Right-to-left exponentiator over the dual-channel array: it executes
/// the ExpMode::kRightToLeft schedule and issues two adjacent steps as one
/// pair whenever the second does not read the first's product (the two
/// domain entries; A <- A*S with S <- S^2), every other step singly.
class InterleavedExponentiator {
 public:
  explicit InterleavedExponentiator(bignum::BigUInt modulus);

  /// Issue accounting lands in the normalized EngineStats: paired_issues
  /// are charged 3l+5, single_issues 3l+4, their sum in engine_cycles.
  bignum::BigUInt ModExp(const bignum::BigUInt& base,
                         const bignum::BigUInt& exponent,
                         EngineStats* stats = nullptr);

 private:
  bignum::BitSerialMontgomery reference_;
  InterleavedMmmc circuit_;
};

}  // namespace mont::core
