#include "bignum/montgomery.hpp"

#include <stdexcept>

#include "bignum/exp_schedule.hpp"

namespace mont::bignum {

// ---------------------------------------------------------------------------
// BitSerialMontgomery
// ---------------------------------------------------------------------------

BitSerialMontgomery::BitSerialMontgomery(BigUInt modulus)
    : modulus_(std::move(modulus)) {
  if (!modulus_.IsOdd() || modulus_ <= BigUInt{1}) {
    throw std::invalid_argument("BitSerialMontgomery: modulus must be odd > 1");
  }
  modulus_times_two_ = modulus_ << 1;
  l_ = modulus_.BitLength();
  r_ = BigUInt::PowerOfTwo(l_ + 2);
  r2_ = (r_ * r_) % modulus_;
}

BigUInt BitSerialMontgomery::MultiplyAlg1(const BigUInt& x,
                                          const BigUInt& y) const {
  if (x >= modulus_ || y >= modulus_) {
    throw std::invalid_argument("MultiplyAlg1: inputs must be < N");
  }
  // Radix-2 instance of the paper's Algorithm 1: alpha = 1, so N' = 1 and
  // m_i = (t_0 + x_i*y_0) mod 2.
  BigUInt t;
  for (std::size_t i = 0; i < l_; ++i) {
    const bool xi = x.Bit(i);
    const bool mi = t.Bit(0) ^ (xi && y.Bit(0));
    if (xi) t += y;
    if (mi) t += modulus_;
    t >>= 1;
  }
  if (t >= modulus_) t -= modulus_;  // Step 6-8: the final subtraction.
  return t;
}

BigUInt BitSerialMontgomery::MultiplyAlg2(const BigUInt& x,
                                          const BigUInt& y) const {
  if (x >= modulus_times_two_ || y >= modulus_times_two_) {
    throw std::invalid_argument("MultiplyAlg2: inputs must be < 2N");
  }
  // Algorithm 2: l+2 iterations, no final subtraction.  The loop invariant
  // T < 2N after the last iteration follows from Walter's bound R > 4N.
  BigUInt t;
  for (std::size_t i = 0; i < l_ + 2; ++i) {
    const bool xi = x.Bit(i);
    const bool mi = t.Bit(0) ^ (xi && y.Bit(0));
    if (xi) t += y;
    if (mi) t += modulus_;
    t >>= 1;
  }
  return t;
}

BigUInt BitSerialMontgomery::FromMont(const BigUInt& x) const {
  BigUInt t = MultiplyAlg2(x, BigUInt{1});
  // The paper proves Mont(T, 1) <= N with equality impossible for nonzero
  // residues; reduce anyway so callers always receive a canonical value.
  if (t >= modulus_) t -= modulus_;
  return t;
}

// ---------------------------------------------------------------------------
// WordMontgomery
// ---------------------------------------------------------------------------

WordMontgomery::WordMontgomery(BigUInt modulus) : modulus_(std::move(modulus)) {
  if (!modulus_.IsOdd() || modulus_ <= BigUInt{1}) {
    throw std::invalid_argument("WordMontgomery: modulus must be odd > 1");
  }
  n_.assign(modulus_.Limbs().begin(), modulus_.Limbs().end());

  // n'_0 = -N^-1 mod 2^32 via Newton iteration on the 2-adic inverse:
  // inv *= 2 - n0*inv doubles the number of correct low bits each step.
  const Limb n0 = n_[0];
  Limb inv = 1;
  for (int iter = 0; iter < 5; ++iter) {
    inv = static_cast<Limb>(inv * (2u - n0 * inv));
  }
  n_prime_0_ = static_cast<Limb>(0u - inv);

  const BigUInt r = BigUInt::PowerOfTwo(32 * n_.size());
  r_mod_n_ = r % modulus_;
  r2_mod_n_ = (r_mod_n_ * r_mod_n_) % modulus_;
  one_mont_ = r_mod_n_;
}

std::vector<WordMontgomery::Limb> WordMontgomery::PadToLimbs(
    const BigUInt& v) const {
  std::vector<Limb> out(n_.size(), 0);
  for (std::size_t i = 0; i < n_.size(); ++i) out[i] = v.LimbAt(i);
  return out;
}

void WordMontgomery::ConditionalSubtract(std::vector<Limb>& value,
                                         std::span<const Limb> modulus) {
  // value has modulus.size() + 1 limbs (top limb is the CIOS/SOS overflow).
  // Subtract modulus when value >= modulus.
  const std::size_t s = modulus.size();
  bool geq = value[s] != 0;
  if (!geq) {
    geq = true;  // assume equal until a difference is found
    for (std::size_t i = s; i-- > 0;) {
      if (value[i] != modulus[i]) {
        geq = value[i] > modulus[i];
        break;
      }
    }
  }
  if (!geq) {
    value.resize(s);
    return;
  }
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < s; ++i) {
    std::int64_t diff = static_cast<std::int64_t>(value[i]) -
                        static_cast<std::int64_t>(modulus[i]) - borrow;
    borrow = diff < 0 ? 1 : 0;
    value[i] = static_cast<Limb>(diff & 0xffffffff);
  }
  value.resize(s);
}

std::vector<WordMontgomery::Limb> WordMontgomery::MultiplyCios(
    std::span<const Limb> a, std::span<const Limb> b) const {
  const std::size_t s = n_.size();
  std::vector<Limb> t(s + 2, 0);
  for (std::size_t i = 0; i < s; ++i) {
    // t += a[i] * b
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const std::uint64_t v =
          static_cast<std::uint64_t>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<Limb>(v);
      carry = v >> 32;
    }
    std::uint64_t v = static_cast<std::uint64_t>(t[s]) + carry;
    t[s] = static_cast<Limb>(v);
    t[s + 1] = static_cast<Limb>(v >> 32);

    // m = t[0] * n'_0 mod 2^32; t = (t + m*N) / 2^32
    const Limb m = static_cast<Limb>(t[0] * n_prime_0_);
    carry = (static_cast<std::uint64_t>(m) * n_[0] + t[0]) >> 32;
    for (std::size_t j = 1; j < s; ++j) {
      const std::uint64_t w =
          static_cast<std::uint64_t>(m) * n_[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(w);
      carry = w >> 32;
    }
    v = static_cast<std::uint64_t>(t[s]) + carry;
    t[s - 1] = static_cast<Limb>(v);
    t[s] = t[s + 1] + static_cast<Limb>(v >> 32);
    t[s + 1] = 0;
  }
  t.resize(s + 1);
  ConditionalSubtract(t, n_);
  return t;
}

std::vector<WordMontgomery::Limb> WordMontgomery::MultiplySos(
    std::span<const Limb> a, std::span<const Limb> b) const {
  const std::size_t s = n_.size();
  // Phase 1: full double-width product.
  std::vector<Limb> t(2 * s + 1, 0);
  for (std::size_t i = 0; i < s; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const std::uint64_t v =
          static_cast<std::uint64_t>(a[i]) * b[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(v);
      carry = v >> 32;
    }
    t[i + s] = static_cast<Limb>(carry);
  }
  // Phase 2: interleaved reduction, one limb of m per outer step.
  for (std::size_t i = 0; i < s; ++i) {
    const Limb m = static_cast<Limb>(t[i] * n_prime_0_);
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const std::uint64_t v =
          static_cast<std::uint64_t>(m) * n_[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(v);
      carry = v >> 32;
    }
    // Propagate the carry up through the remaining limbs.
    for (std::size_t j = i + s; carry != 0 && j < t.size(); ++j) {
      const std::uint64_t v = static_cast<std::uint64_t>(t[j]) + carry;
      t[j] = static_cast<Limb>(v);
      carry = v >> 32;
    }
  }
  // Phase 3: divide by R = 2^(32 s) and reduce.
  std::vector<Limb> u(t.begin() + static_cast<std::ptrdiff_t>(s), t.end());
  ConditionalSubtract(u, n_);
  return u;
}

std::vector<WordMontgomery::Limb> WordMontgomery::MultiplyFips(
    std::span<const Limb> a, std::span<const Limb> b) const {
  const std::size_t s = n_.size();
  std::vector<Limb> m(s, 0);
  std::vector<Limb> u(s + 1, 0);
  unsigned __int128 acc = 0;
  // Lower half: accumulate column i of a*b + m*N, emit m[i], shift.
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      acc += static_cast<unsigned __int128>(a[j]) * b[i - j];
      acc += static_cast<unsigned __int128>(m[j]) * n_[i - j];
    }
    acc += static_cast<unsigned __int128>(a[i]) * b[0];
    m[i] = static_cast<Limb>(static_cast<Limb>(acc) * n_prime_0_);
    acc += static_cast<unsigned __int128>(m[i]) * n_[0];
    acc >>= 32;
  }
  // Upper half: remaining columns produce the result limbs directly.
  for (std::size_t i = s; i < 2 * s; ++i) {
    for (std::size_t j = i - s + 1; j < s; ++j) {
      acc += static_cast<unsigned __int128>(a[j]) * b[i - j];
      acc += static_cast<unsigned __int128>(m[j]) * n_[i - j];
    }
    u[i - s] = static_cast<Limb>(acc);
    acc >>= 32;
  }
  u[s] = static_cast<Limb>(acc);
  ConditionalSubtract(u, n_);
  return u;
}

BigUInt WordMontgomery::Multiply(const BigUInt& x, const BigUInt& y,
                                 Variant variant) const {
  if (x >= modulus_ || y >= modulus_) {
    throw std::invalid_argument("WordMontgomery::Multiply: inputs must be < N");
  }
  const std::vector<Limb> a = PadToLimbs(x);
  const std::vector<Limb> b = PadToLimbs(y);
  std::vector<Limb> out;
  switch (variant) {
    case Variant::kCios:
      out = MultiplyCios(a, b);
      break;
    case Variant::kSos:
      out = MultiplySos(a, b);
      break;
    case Variant::kFips:
      out = MultiplyFips(a, b);
      break;
  }
  return BigUInt::FromLimbs(out);
}

BigUInt WordMontgomery::ToMont(const BigUInt& x) const {
  return Multiply(x % modulus_, r2_mod_n_);
}

BigUInt WordMontgomery::FromMont(const BigUInt& x) const {
  return Multiply(x, BigUInt{1});
}

BigUInt WordMontgomery::ModExp(const BigUInt& base, const BigUInt& exponent,
                               Variant variant) const {
  std::vector<ExpStep> steps;
  BuildExpSchedule(ExpMode::kAlg3, exponent, &steps);
  ExpExecutor<BigUInt> run(steps, base % modulus_, r2_mod_n_, BigUInt{1});
  run.Run([&](const BigUInt& x, const BigUInt& y) {
    return Multiply(x, y, variant);
  });
  return run.Result();
}

}  // namespace mont::bignum
