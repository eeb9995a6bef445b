// montgomery.hpp — software Montgomery modular multiplication: the paper's
// radix-2 algorithms and the word-level kernel everything fast runs on.
//
// Two layers are provided:
//
//  * BitSerialMontgomery — radix-2 references for the paper's Algorithm 1
//    (with final subtraction, R = 2^l) and Algorithm 2 (without final
//    subtraction, R = 2^(l+2), Walter's bound 4N < R).  These are the golden
//    models the cycle-accurate systolic hardware in src/core is checked
//    against.  Exponentiation over them runs the shared §4.5 schedule
//    (bignum/exp_schedule.hpp).
//
//  * WordMontgomery — one fixed-width, allocation-free CIOS kernel over
//    64-bit limbs (Koç, Acar & Kaliski's coarsely integrated operand
//    scanning), instantiated per limb count, with n0' and R^2 computed once
//    per modulus and a masked final subtraction.  Its ModExp executes the
//    ExpMode::kFixedWindow schedule with a masked-scan table read; RSA key
//    generation's Miller-Rabin rounds and the word-mont engine run on it.
//    SOS and FIPS survive only as bench_software's comparison.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/exp_schedule.hpp"

namespace mont::bignum {

/// Radix-2 Montgomery multiplication contexts for an odd modulus N.
///
/// Terminology follows the paper: l is the bit length of N (N < 2^l), the
/// Montgomery parameter of Algorithm 2 is R = 2^(l+2) which satisfies
/// Walter's optimal bound 4N < R, so that inputs x, y < 2N produce an output
/// T < 2N with no final subtraction.
class BitSerialMontgomery {
 public:
  /// Requires an odd modulus > 1; throws std::invalid_argument otherwise.
  explicit BitSerialMontgomery(BigUInt modulus);

  const BigUInt& Modulus() const { return modulus_; }
  /// Bit length l of the modulus.
  std::size_t l() const { return l_; }
  /// Algorithm 2's Montgomery parameter R = 2^(l+2).
  const BigUInt& R() const { return r_; }
  /// R^2 mod N, the pre-computation constant for domain entry.
  const BigUInt& RSquaredModN() const { return r2_; }

  /// Algorithm 1 (paper): l iterations, R1 = 2^l, inputs in [0, N),
  /// output x*y*2^-l mod N, fully reduced below N by the final subtraction.
  BigUInt MultiplyAlg1(const BigUInt& x, const BigUInt& y) const;

  /// Algorithm 2 (paper): l+2 iterations, R = 2^(l+2), inputs in [0, 2N),
  /// output congruent to x*y*R^-1 (mod N) and guaranteed < 2N.
  /// Throws std::invalid_argument if an input is >= 2N.
  BigUInt MultiplyAlg2(const BigUInt& x, const BigUInt& y) const;

  /// Montgomery-domain entry: Mont(x, R^2 mod N) = x*R mod 2N.
  BigUInt ToMont(const BigUInt& x) const { return MultiplyAlg2(x, r2_); }
  /// Montgomery-domain exit: Mont(x, 1) = x*R^-1 mod 2N; per the paper this
  /// final step is bounded by N (reduced below N here for API convenience).
  BigUInt FromMont(const BigUInt& x) const;

 private:
  BigUInt modulus_;
  BigUInt modulus_times_two_;
  std::size_t l_ = 0;
  BigUInt r_;
  BigUInt r2_;
};

/// Word-level Montgomery multiplication for an odd modulus N of s 32-bit
/// limbs.  Values are kept in [0, N); R = 2^(32*s).  Internally N is
/// k = ceil(s/2) 64-bit words; when s is odd the kernel's last reduction
/// digit is 32 bits wide, so R stays 2^(32*s).  BigUInt appears only at the
/// API boundary; the kernel and the word API below never allocate.
class WordMontgomery {
 public:
  using Word = std::uint64_t;

  /// Requires an odd modulus > 1; throws std::invalid_argument otherwise.
  explicit WordMontgomery(BigUInt modulus);

  const BigUInt& Modulus() const { return modulus_; }
  /// s, the modulus's 32-bit limb count: R = 2^(32 s).
  std::size_t LimbCount() const { return modulus_.LimbCount(); }
  /// R mod N (the Montgomery representation of 1).
  const BigUInt& OneMont() const { return one_mont_; }
  /// R^2 mod N, the domain-entry factor: ToMont(x) == Multiply(x, R^2).
  const BigUInt& RSquaredModN() const { return r2_mod_n_; }

  /// Montgomery product x*y*R^-1 mod N for x, y in [0, N).
  BigUInt Multiply(const BigUInt& x, const BigUInt& y) const;

  BigUInt ToMont(const BigUInt& x) const;
  BigUInt FromMont(const BigUInt& x) const;

  /// base^exponent mod N: ExpMode::kFixedWindow (kDefaultWindowBits)
  /// executed on the kernel.
  BigUInt ModExp(const BigUInt& base, const BigUInt& exponent) const;

  /// Executes `steps` (any ExpMode) on the kernel from base mod N and
  /// returns register A, which the schedule's domain exit leaves in [0, N).
  /// A y operand in the window table is fetched by a masked scan of every
  /// entry, so neither a step's digit nor an operand value selects a
  /// branch or a memory address.
  BigUInt RunSchedule(std::span<const ExpStep> steps,
                      const BigUInt& base) const;

  // -- the word API: operands of WordCount() words, least significant first

  /// k, the modulus's 64-bit word count.
  std::size_t WordCount() const { return n_.size(); }
  /// Scratch words MultiplyWords needs.
  std::size_t ScratchWords() const { return n_.size() + 2; }
  /// out = x*y*R^-1 mod N for x, y in [0, N); out may alias x or y.
  void MultiplyWords(std::span<Word> out, std::span<const Word> x,
                     std::span<const Word> y, std::span<Word> scratch) const;
  /// Writes v (< 2^(64 out.size())) as out.size() words.
  static void ToWords(const BigUInt& v, std::span<Word> out);
  static BigUInt FromWords(std::span<const Word> words);

 private:
  /// The CIOS kernel for one word count: n, -N^-1 mod 2^64, k, whether the
  /// last reduction digit is 32 bits, then out, x, y and k + 2 scratch
  /// words.
  using Kernel = void (*)(const Word* n, Word n0_inv, std::size_t k,
                          bool half_top, Word* out, const Word* x,
                          const Word* y, Word* scratch);

  void Mul(Word* out, const Word* x, const Word* y, Word* scratch) const {
    kernel_(n_.data(), n0_inv_, n_.size(), half_top_, out, x, y, scratch);
  }

  BigUInt modulus_;
  std::vector<Word> n_;      // modulus words
  Word n0_inv_ = 0;          // -N^-1 mod 2^64
  bool half_top_ = false;    // s odd: the last reduction digit is 32 bits
  Kernel kernel_ = nullptr;  // CIOS instantiated for WordCount()
  BigUInt r2_mod_n_;
  BigUInt one_mont_;
  std::vector<Word> r2_words_;  // R^2 mod N as words
};

}  // namespace mont::bignum
