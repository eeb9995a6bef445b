#include "bignum/montgomery.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

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

namespace {

using Word = WordMontgomery::Word;
using Wide = unsigned __int128;

/// Word counts with their own fixed-width kernel (moduli up to 2048 bits);
/// wider moduli run the same body with a runtime word count.
constexpr std::size_t kFixedWords = 32;

/// CIOS (Koç, Acar & Kaliski): per word x[i], t += x[i]*y, then
/// t = (t + m*N) / 2^64 with m = t[0]*n0_inv mod 2^64, so t stays below 2N
/// in k+1 words.  With half_top the last word of x is below 2^32 and the
/// last reduction divides by 2^32, making R = 2^(64k - 32).  The final
/// subtraction of N is selected by a mask.  No branch or address depends
/// on an operand value.  K > 0 fixes the word count at compile time and
/// keeps t on the stack; K == 0 reads it from k and uses `scratch`.
template <std::size_t K>
void CiosKernel(const Word* n, Word n0_inv, std::size_t k_runtime,
                bool half_top, Word* out, const Word* x, const Word* y,
                Word* scratch) {
  const std::size_t k = K != 0 ? K : k_runtime;
  Word local[K != 0 ? K + 2 : 1];
  Word* const t = K != 0 ? local : scratch;
  for (std::size_t j = 0; j < k + 2; ++j) t[j] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    Word carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const Wide v = static_cast<Wide>(x[i]) * y[j] + t[j] + carry;
      t[j] = static_cast<Word>(v);
      carry = static_cast<Word>(v >> 64);
    }
    Wide v = static_cast<Wide>(t[k]) + carry;
    t[k] = static_cast<Word>(v);
    t[k + 1] = static_cast<Word>(v >> 64);

    if (half_top && i + 1 == k) {
      // A 32-bit reduction digit: t = (t + m*N) / 2^32.
      const Word m = static_cast<std::uint32_t>(t[0] * n0_inv);
      carry = 0;
      for (std::size_t j = 0; j < k; ++j) {
        v = static_cast<Wide>(m) * n[j] + t[j] + carry;
        t[j] = static_cast<Word>(v);
        carry = static_cast<Word>(v >> 64);
      }
      v = static_cast<Wide>(t[k]) + carry;
      t[k] = static_cast<Word>(v);
      t[k + 1] += static_cast<Word>(v >> 64);
      for (std::size_t j = 0; j <= k; ++j) {
        t[j] = (t[j] >> 32) | (t[j + 1] << 32);
      }
      break;
    }
    const Word m = t[0] * n0_inv;
    v = static_cast<Wide>(m) * n[0] + t[0];
    carry = static_cast<Word>(v >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      v = static_cast<Wide>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<Word>(v);
      carry = static_cast<Word>(v >> 64);
    }
    v = static_cast<Wide>(t[k]) + carry;
    t[k - 1] = static_cast<Word>(v);
    t[k] = t[k + 1] + static_cast<Word>(v >> 64);
  }

  // t < 2N: out = t - N, then keep t instead where that borrowed.
  Word borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const Wide d = static_cast<Wide>(t[j]) - n[j] - borrow;
    out[j] = static_cast<Word>(d);
    borrow = static_cast<Word>(d >> 64) & 1;
  }
  const Word keep_t = 0 - (borrow & ~t[k] & 1);
  for (std::size_t j = 0; j < k; ++j) {
    out[j] = (t[j] & keep_t) | (out[j] & ~keep_t);
  }
}

template <std::size_t... I>
constexpr auto FixedKernels(std::index_sequence<I...>) {
  return std::array<void (*)(const Word*, Word, std::size_t, bool, Word*,
                             const Word*, const Word*, Word*),
                    sizeof...(I)>{&CiosKernel<I + 1>...};
}

/// out = table[index], reading all `entries` entries of k words and
/// combining them under masks, so the address sequence is independent of
/// the index.
void SelectEntry(const Word* table, std::size_t entries, std::size_t k,
                 std::size_t index, Word* out) {
  std::fill(out, out + k, Word{0});
  for (std::size_t e = 0; e < entries; ++e) {
    const Word mask = 0 - ((static_cast<Word>(e ^ index) - 1) >> 63);
    for (std::size_t j = 0; j < k; ++j) out[j] |= table[e * k + j] & mask;
  }
}

}  // namespace

WordMontgomery::WordMontgomery(BigUInt modulus) : modulus_(std::move(modulus)) {
  if (!modulus_.IsOdd() || modulus_ <= BigUInt{1}) {
    throw std::invalid_argument("WordMontgomery: modulus must be odd > 1");
  }
  const std::size_t s = modulus_.LimbCount();
  n_.resize((s + 1) / 2);
  ToWords(modulus_, n_);
  half_top_ = s % 2 == 1;

  // -N^-1 mod 2^64 by Newton iteration on the 2-adic inverse: n0 is its
  // own inverse mod 8, and inv *= 2 - n0*inv doubles the correct low bits.
  const Word n0 = n_[0];
  Word inv = n0;
  for (int iter = 0; iter < 5; ++iter) inv *= 2 - n0 * inv;
  n0_inv_ = 0 - inv;

  static constexpr auto kKernels =
      FixedKernels(std::make_index_sequence<kFixedWords>{});
  kernel_ = n_.size() <= kFixedWords ? kKernels[n_.size() - 1]
                                     : &CiosKernel<0>;

  one_mont_ = BigUInt::PowerOfTwo(32 * s) % modulus_;
  r2_mod_n_ = (one_mont_ * one_mont_) % modulus_;
  r2_words_.resize(n_.size());
  ToWords(r2_mod_n_, r2_words_);
}

void WordMontgomery::ToWords(const BigUInt& v, std::span<Word> out) {
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = Word{v.LimbAt(2 * j)} | Word{v.LimbAt(2 * j + 1)} << 32;
  }
}

BigUInt WordMontgomery::FromWords(std::span<const Word> words) {
  std::vector<BigUInt::Limb> limbs(2 * words.size());
  for (std::size_t j = 0; j < words.size(); ++j) {
    limbs[2 * j] = static_cast<BigUInt::Limb>(words[j]);
    limbs[2 * j + 1] = static_cast<BigUInt::Limb>(words[j] >> 32);
  }
  return BigUInt::FromLimbs(limbs);
}

void WordMontgomery::MultiplyWords(std::span<Word> out,
                                   std::span<const Word> x,
                                   std::span<const Word> y,
                                   std::span<Word> scratch) const {
  Mul(out.data(), x.data(), y.data(), scratch.data());
}

BigUInt WordMontgomery::Multiply(const BigUInt& x, const BigUInt& y) const {
  if (x >= modulus_ || y >= modulus_) {
    throw std::invalid_argument("WordMontgomery::Multiply: inputs must be < N");
  }
  const std::size_t k = WordCount();
  std::vector<Word> words(3 * k + ScratchWords());
  Word* const a = words.data();
  Word* const b = a + k;
  Word* const out = b + k;
  ToWords(x, {a, k});
  ToWords(y, {b, k});
  Mul(out, a, b, out + k);
  return FromWords({out, k});
}

BigUInt WordMontgomery::ToMont(const BigUInt& x) const {
  return Multiply(x % modulus_, r2_mod_n_);
}

BigUInt WordMontgomery::FromMont(const BigUInt& x) const {
  return Multiply(x, BigUInt{1});
}

BigUInt WordMontgomery::RunSchedule(std::span<const ExpStep> steps,
                                    const BigUInt& base) const {
  const std::size_t k = WordCount();
  const std::size_t registers = ExpRegisterCount(steps);
  // The registers, one fetched table entry, the kernel's scratch.
  std::vector<Word> words((registers + 1) * k + ScratchWords());
  const auto reg = [&](ExpSlot slot) {
    return words.data() + static_cast<std::size_t>(slot) * k;
  };
  Word* const fetched = words.data() + registers * k;
  Word* const scratch = fetched + k;
  ToWords(base < modulus_ ? base : base % modulus_, {reg(ExpSlot::kBase), k});
  std::copy(r2_words_.begin(), r2_words_.end(), reg(ExpSlot::kR2));
  reg(ExpSlot::kOne)[0] = 1;
  reg(ExpSlot::kA)[0] = 1;
  for (const ExpStep& step : steps) {
    const Word* y = fetched;
    if (IsTableSlot(step.y)) {
      SelectEntry(reg(TableSlot(0)), registers - kExpSlotCount, k,
                  static_cast<std::size_t>(step.y) - kExpSlotCount, fetched);
    } else {
      y = reg(step.y);
    }
    Mul(reg(step.dst), reg(step.x), y, scratch);
  }
  return FromWords({reg(ExpSlot::kA), k});
}

BigUInt WordMontgomery::ModExp(const BigUInt& base,
                               const BigUInt& exponent) const {
  std::vector<ExpStep> steps;
  BuildExpSchedule(ExpMode::kFixedWindow, exponent, &steps);
  return RunSchedule(steps, base);
}

}  // namespace mont::bignum
