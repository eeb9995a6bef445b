// exponentiator.hpp — the paper's modular exponentiator (§4.5, Algorithm 3)
// built from repeated Montgomery modular multiplications, with exact cycle
// accounting.
//
// Every multiplication runs on a `core::MmmEngine` selected by registry
// name (core/engine.hpp), so any datapath in the tree is a drop-in:
//
//   * "bit-serial" (default) — software Algorithm 2, cycles charged per
//     the validated formula 3l+4; usable at RSA sizes;
//   * "mmmc" — every multiplication simulated clock edge by clock edge on
//     the behavioural array model, so cycle counts are measured;
//   * "netlist-sim", "interleaved", "high-radix", "word-mont",
//     "blum-paar" — every other registered backend.
//
// All backends are bit-identical (asserted in tests/test_engine.cpp); the
// paper's published cycle model (pre-computation 5l+10, one MMM 3l+4,
// post-processing l+2, Eq. 10 bounds) is reported in EngineStats alongside
// the engine's own count so benches can print paper-vs-measured.
#pragma once

#include <memory>
#include <string_view>

#include "bignum/biguint.hpp"
#include "core/engine.hpp"

namespace mont::core {

/// Modular exponentiator over a fixed odd modulus N (bit length l),
/// parameterised by multiplication backend.
class Exponentiator {
 public:
  /// Builds the named registry backend over `modulus` (GF(p)).
  explicit Exponentiator(bignum::BigUInt modulus,
                         std::string_view engine = "bit-serial",
                         const EngineOptions& options = {});
  /// Adopts an already-constructed backend.
  explicit Exponentiator(std::unique_ptr<MmmEngine> engine);

  std::size_t l() const { return engine_->l(); }
  const bignum::BigUInt& Modulus() const { return engine_->Modulus(); }
  const MmmEngine& Engine() const { return *engine_; }

  /// base^exponent mod N via left-to-right square-and-multiply with
  /// Montgomery pre-/post-processing exactly as in §4.5.  Exponent
  /// randomization, the §5 countermeasure, lives in the RSA private-key
  /// paths (crypto::RsaBlindingOptions::exponent_blind_bits).
  bignum::BigUInt ModExp(const bignum::BigUInt& base,
                         const bignum::BigUInt& exponent,
                         EngineStats* stats = nullptr) const;

 private:
  std::unique_ptr<MmmEngine> engine_;
};

}  // namespace mont::core
