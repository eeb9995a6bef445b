// high_radix.hpp — radix-2^α Montgomery multiplication (the paper's §2:
// "In the case of higher radix it can perform multiplication in
// ceil((n+2)/α)" citing Batina & Muurling).
//
// The paper's array fixes α = 1 for simplicity and clock speed; this
// module implements the general word-serial datapath for α up to 32 so the
// radix trade-off can be measured rather than assumed: fewer iterations
// per multiplication, but a quotient-digit multiply (m_i = t_0 * N' mod
// 2^α) and wider partial products on the critical path.
//
// Functional semantics: with s = ceil(r/α) iterations where 2^r is the
// minimal Walter parameter (4N < 2^(αs)), inputs x, y < 2N produce
// T = x * y * 2^(-αs) mod N with T < 2N — the same chainable window as
// Algorithm 2, verified against it in the tests.
#pragma once

#include <cstdint>

#include "bignum/biguint.hpp"

namespace mont::core {

class HighRadixMultiplier {
 public:
  /// Requires an odd modulus > 1 and alpha in [1, 32].
  HighRadixMultiplier(bignum::BigUInt modulus, std::size_t alpha);

  std::size_t l() const { return l_; }
  std::size_t Alpha() const { return alpha_; }
  /// Number of word iterations s (ceil((l+2)/alpha) for full-size moduli).
  std::size_t Iterations() const { return iterations_; }
  /// The Montgomery parameter 2^(alpha * s).
  bignum::BigUInt R() const;
  /// -N^-1 mod 2^alpha (the quotient-digit constant; 1 when alpha = 1).
  std::uint64_t NPrime() const { return n_prime_; }
  /// R^2 mod N, the domain-entry factor: ToMont(x) == Multiply(x, R^2).
  const bignum::BigUInt& RSquaredModN() const { return r2_; }

  /// x * y * R^-1 mod N for x, y < 2N; result < 2N (chainable).
  bignum::BigUInt Multiply(const bignum::BigUInt& x,
                           const bignum::BigUInt& y) const;

  /// Cycle model for the word-serial systolic pipeline: the radix-2
  /// schedule 2s + w + 2 generalised to words (s iterations, w =
  /// ceil((l+1)/alpha) result words), plus load and output cycles.
  std::uint64_t MultiplyCycles() const;

 private:
  bignum::BigUInt modulus_;
  bignum::BigUInt modulus_times_two_;
  std::size_t l_;
  std::size_t alpha_;
  std::size_t iterations_;
  std::uint64_t n_prime_;
  bignum::BigUInt r2_;
};

}  // namespace mont::core
