#include "core/high_radix.hpp"

#include <stdexcept>

#include "bignum/bounds.hpp"

namespace mont::core {

using bignum::BigUInt;

HighRadixMultiplier::HighRadixMultiplier(BigUInt modulus, std::size_t alpha)
    : modulus_(std::move(modulus)), alpha_(alpha) {
  if (!modulus_.IsOdd() || modulus_ <= BigUInt{1}) {
    throw std::invalid_argument("HighRadixMultiplier: modulus must be odd > 1");
  }
  if (alpha_ < 1 || alpha_ > 32) {
    throw std::invalid_argument("HighRadixMultiplier: alpha must be in [1,32]");
  }
  modulus_times_two_ = modulus_ << 1;
  l_ = modulus_.BitLength();
  const std::size_t min_r = bignum::MinimalWalterExponent(modulus_);
  iterations_ = (min_r + alpha_ - 1) / alpha_;

  // n' = -N^-1 mod 2^alpha via Newton iteration on the low word of N.
  const std::uint64_t mask =
      alpha_ == 64 ? ~0ull : ((1ull << alpha_) - 1);  // alpha <= 32 anyway
  const std::uint64_t n0 = modulus_.ToUint64() & mask;
  std::uint64_t inv = 1;
  for (int iter = 0; iter < 6; ++iter) {
    inv = (inv * (2 - n0 * inv)) & mask;
  }
  n_prime_ = (0 - inv) & mask;

  const BigUInt r = R();
  r2_ = (r * r) % modulus_;
}

BigUInt HighRadixMultiplier::R() const {
  return BigUInt::PowerOfTwo(alpha_ * iterations_);
}

BigUInt HighRadixMultiplier::Multiply(const BigUInt& x,
                                      const BigUInt& y) const {
  if (x >= modulus_times_two_ || y >= modulus_times_two_) {
    throw std::invalid_argument("HighRadixMultiplier: operands must be < 2N");
  }
  const std::uint64_t mask = (alpha_ == 64) ? ~0ull : ((1ull << alpha_) - 1);
  BigUInt t;
  for (std::size_t i = 0; i < iterations_; ++i) {
    // x_i: the i-th alpha-bit digit of x.
    std::uint64_t xi = 0;
    for (std::size_t b = 0; b < alpha_; ++b) {
      if (x.Bit(i * alpha_ + b)) xi |= 1ull << b;
    }
    // T += x_i * Y.
    if (xi != 0) t += y * BigUInt{xi};
    // m_i = (t mod 2^alpha) * n' mod 2^alpha.
    const std::uint64_t t0 = t.ToUint64() & mask;
    const std::uint64_t mi = (t0 * n_prime_) & mask;
    if (mi != 0) t += modulus_ * BigUInt{mi};
    t >>= alpha_;
  }
  return t;
}

std::uint64_t HighRadixMultiplier::MultiplyCycles() const {
  const std::uint64_t words =
      (static_cast<std::uint64_t>(l_) + 1 + alpha_ - 1) / alpha_;
  return 2 * static_cast<std::uint64_t>(iterations_) + words + 2;
}

}  // namespace mont::core
