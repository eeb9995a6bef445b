#include "bignum/prime.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <vector>

#include "bignum/exp_schedule.hpp"
#include "bignum/montgomery.hpp"

namespace mont::bignum {

namespace {

// Primes below 1000, used for trial-division sieving.
constexpr std::array<std::uint32_t, 168> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
    439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613,
    617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701,
    709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809,
    811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887,
    907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};

// Products of consecutive kSmallPrimes, each below 2^32: one Horner pass
// over a candidate's 32-bit limbs per product (64-bit intermediates) gives
// the residues of all its primes.
struct PrimeGroup {
  std::uint32_t product = 1;
  std::size_t first = 0, last = 0;  // kSmallPrimes[first, last)
};

struct PrimeGroups {
  std::array<PrimeGroup, kSmallPrimes.size()> groups{};
  std::size_t count = 0;
};

constexpr PrimeGroups kPrimeGroups = [] {
  PrimeGroups out;
  PrimeGroup group;
  for (std::size_t i = 0; i < kSmallPrimes.size(); ++i) {
    if (std::uint64_t{group.product} * kSmallPrimes[i] > 0xffffffffu) {
      out.groups[out.count++] = group;
      group = {1, i, i};
    }
    group.product *= kSmallPrimes[i];
    group.last = i + 1;
  }
  out.groups[out.count++] = group;
  return out;
}();

enum class TrialDivision {
  kSmallPrime,  ///< the candidate is one of kSmallPrimes
  kComposite,   ///< a small prime divides it properly
  kPassed,      ///< no small prime divides it
};

/// Trial division of n >= 2 by every prime below 1000, in ascending order.
TrialDivision TrialDivide(const BigUInt& n) {
  const std::span<const BigUInt::Limb> limbs = n.Limbs();
  const bool small = n.BitLength() <= 10;  // n < 1024 may be a small prime
  for (std::size_t g = 0; g < kPrimeGroups.count; ++g) {
    const PrimeGroup& group = kPrimeGroups.groups[g];
    std::uint64_t residue = 0;
    for (std::size_t i = limbs.size(); i-- > 0;) {
      residue = ((residue << 32) | limbs[i]) % group.product;
    }
    for (std::size_t i = group.first; i < group.last; ++i) {
      if (residue % kSmallPrimes[i] != 0) continue;
      return small && n.ToUint64() == kSmallPrimes[i]
                 ? TrialDivision::kSmallPrime
                 : TrialDivision::kComposite;
    }
  }
  return TrialDivision::kPassed;
}

/// Miller-Rabin over one odd candidate n > 1000: n - 1 = odd_part * 2^twos.
/// Every base runs the same fixed-window schedule for odd_part on the
/// word-level kernel, and the squarings after it stay on the kernel in the
/// Montgomery domain, compared against Mont(1) and Mont(n - 1).
class MillerRabin {
 public:
  using Word = WordMontgomery::Word;

  explicit MillerRabin(const BigUInt& n)
      : ctx_(n),
        n_minus_1_(n - BigUInt{1}),
        words_(4 * ctx_.WordCount() + ctx_.ScratchWords()) {
    BigUInt odd_part = n_minus_1_;
    while (!odd_part.IsOdd()) {
      odd_part >>= 1;
      ++twos_;
    }
    BuildExpSchedule(ExpMode::kFixedWindow, odd_part, &steps_);
    const std::size_t k = ctx_.WordCount();
    auto next = [at = words_.data()](std::size_t count) mutable {
      const std::span<Word> out(at, count);
      at += count;
      return out;
    };
    r2_ = next(k);
    mont_one_ = next(k);
    mont_minus_one_ = next(k);
    x_ = next(k);
    scratch_ = next(ctx_.ScratchWords());
    WordMontgomery::ToWords(ctx_.RSquaredModN(), r2_);
    WordMontgomery::ToWords(ctx_.OneMont(), mont_one_);
    WordMontgomery::ToWords(n - ctx_.OneMont(), mont_minus_one_);
  }

  /// True when `base` witnesses that n is composite.
  bool Witness(const BigUInt& base) {
    const BigUInt x = ctx_.RunSchedule(steps_, base);
    if (x.IsOne() || x == n_minus_1_) return false;
    WordMontgomery::ToWords(x, x_);
    ctx_.MultiplyWords(x_, x_, r2_, scratch_);
    for (std::size_t i = 1; i < twos_; ++i) {
      ctx_.MultiplyWords(x_, x_, x_, scratch_);
      if (std::ranges::equal(x_, mont_minus_one_)) return false;
      if (std::ranges::equal(x_, mont_one_)) return true;  // root of 1 != +-1
    }
    return true;  // composite witnessed
  }

 private:
  WordMontgomery ctx_;
  BigUInt n_minus_1_;
  std::size_t twos_ = 0;
  std::vector<ExpStep> steps_;
  std::vector<Word> words_;
  std::span<Word> r2_, mont_one_, mont_minus_one_, x_, scratch_;
};

/// The Miller-Rabin rounds for an odd n > 1000 with no small factor: bases
/// 2 and 3, then `rounds` bases drawn uniformly from [2, n - 2].
bool PassesMillerRabin(const BigUInt& n, RandomBigUInt& rng, int rounds) {
  MillerRabin test(n);
  if (test.Witness(BigUInt{2}) || test.Witness(BigUInt{3})) return false;
  for (int round = 0; round < rounds; ++round) {
    if (test.Witness(rng.Below(n - BigUInt{3}) + BigUInt{2})) return false;
  }
  return true;
}

}  // namespace

bool IsProbablePrime(const BigUInt& candidate, RandomBigUInt& rng, int rounds) {
  if (candidate < BigUInt{2}) return false;
  switch (TrialDivide(candidate)) {
    case TrialDivision::kSmallPrime: return true;
    case TrialDivision::kComposite: return false;
    case TrialDivision::kPassed: break;
  }
  return PassesMillerRabin(candidate, rng, rounds);
}

BigUInt GeneratePrime(std::size_t bits, RandomBigUInt& rng, int rounds) {
  if (bits < 2) throw std::invalid_argument("GeneratePrime: bits must be >= 2");
  for (;;) {
    BigUInt candidate = rng.OddExactBits(bits);
    candidate.SetBit(bits - 2, true);  // force top two bits
    // The sieve is IsProbablePrime's trial division, so a candidate that
    // passes it goes straight to the Miller-Rabin rounds.
    switch (TrialDivide(candidate)) {
      case TrialDivision::kSmallPrime: return candidate;
      case TrialDivision::kComposite: continue;
      case TrialDivision::kPassed: break;
    }
    if (PassesMillerRabin(candidate, rng, rounds)) return candidate;
  }
}

}  // namespace mont::bignum
