#include "core/interleaved.hpp"

#include <span>
#include <stdexcept>
#include <vector>

#include "bignum/exp_schedule.hpp"
#include "bignum/montgomery.hpp"
#include "core/schedule.hpp"

namespace mont::core {

using bignum::BigUInt;

InterleavedMmmc::InterleavedMmmc(BigUInt modulus)
    : InterleavedMmmc(modulus, modulus) {}

InterleavedMmmc::InterleavedMmmc(BigUInt modulus_a, BigUInt modulus_b) {
  modulus_[0] = std::move(modulus_a);
  modulus_[1] = std::move(modulus_b);
  for (const BigUInt& n : modulus_) {
    if (!n.IsOdd() || n <= BigUInt{1}) {
      throw std::invalid_argument("InterleavedMmmc: modulus must be odd > 1");
    }
  }
  if (modulus_[0].BitLength() != modulus_[1].BitLength()) {
    throw std::invalid_argument(
        "InterleavedMmmc: channel moduli must have equal bit length "
        "(the cell count is shared)");
  }
  l_ = modulus_[0].BitLength();
  for (std::size_t ch = 0; ch < 2; ++ch) {
    two_n_[ch] = modulus_[ch] << 1;
    n_bits_[ch].assign(l_ + 1, 0);
    for (std::size_t j = 0; j < l_; ++j) {
      n_bits_[ch][j] = modulus_[ch].Bit(j) ? 1 : 0;
    }
  }
}

InterleavedMmmc::PairResult InterleavedMmmc::MultiplyPair(const BigUInt& x_a,
                                                          const BigUInt& y_a,
                                                          const BigUInt& x_b,
                                                          const BigUInt& y_b) {
  for (const BigUInt* operand : {&x_a, &y_a}) {
    if (*operand >= two_n_[0]) {
      throw std::invalid_argument("InterleavedMmmc: operands must be < 2N");
    }
  }
  for (const BigUInt* operand : {&x_b, &y_b}) {
    if (*operand >= two_n_[1]) {
      throw std::invalid_argument("InterleavedMmmc: operands must be < 2N");
    }
  }
  const std::size_t l = l_;

  // Per-channel operand bits.  Y is muxed into each cell by the channel
  // phase; X registers shift on their own channel's cadence.
  std::vector<std::vector<std::uint8_t>> y_bits(2,
                                                std::vector<std::uint8_t>(l + 1, 0));
  std::vector<std::vector<std::uint8_t>> x_reg(2,
                                               std::vector<std::uint8_t>(l + 1, 0));
  for (std::size_t b = 0; b <= l; ++b) {
    y_bits[0][b] = y_a.Bit(b) ? 1 : 0;
    y_bits[1][b] = y_b.Bit(b) ? 1 : 0;
    x_reg[0][b] = x_a.Bit(b) ? 1 : 0;
    x_reg[1][b] = x_b.Bit(b) ? 1 : 0;
  }

  // Shared array state: latched every cycle, channels alternate naturally.
  std::vector<std::uint8_t> t(l + 1, 0);   // t[1..l] (index j)
  std::vector<std::uint8_t> c0(l, 0);      // c0[0..l-1]
  std::vector<std::uint8_t> c1(l, 0);      // c1[1..l-1]
  std::vector<std::uint8_t> x_pipe(l + 1, 0);
  std::vector<std::uint8_t> m_pipe(l + 1, 0);
  std::vector<std::uint8_t> token(l + 1, 0);
  // The leftmost cell's two-cycle self-loop: per-channel top bits.
  std::uint8_t t_top1[2] = {0, 0};  // t[l+1] per channel
  std::uint8_t t_top2[2] = {0, 0};  // t[l+2] per channel
  // Per-channel result capture.
  std::vector<std::vector<std::uint8_t>> result(
      2, std::vector<std::uint8_t>(l + 1, 0));

  // Compute cycles k = 0 .. 3l+3: channel A's last capture is at k = 3l+2
  // (cell l, iteration l+1), channel B's one cycle later.
  const std::uint64_t last_cycle = 3 * static_cast<std::uint64_t>(l) + 3;
  for (std::uint64_t k = 0; k <= last_cycle; ++k) {
    std::vector<std::uint8_t> t_next = t;
    std::vector<std::uint8_t> c0_next = c0;
    std::vector<std::uint8_t> c1_next = c1;
    const auto channel_of = [&](std::size_t j) {
      return static_cast<std::size_t>((k - j) % 2);  // k >= j on live cells
    };

    // Rightmost cell (j = 0): channel = k % 2.
    const std::size_t ch0 = static_cast<std::size_t>(k % 2);
    const std::uint8_t x0 = x_reg[ch0][0];
    const std::uint8_t xy0 = static_cast<std::uint8_t>(x0 & y_bits[ch0][0]);
    const std::uint8_t m0 = static_cast<std::uint8_t>(t[1] ^ xy0);
    c0_next[0] = static_cast<std::uint8_t>(t[1] | xy0);

    // 1st-bit cell (j = 1).
    if (k >= 1) {
      const std::size_t ch = channel_of(1);
      const std::uint8_t a = l >= 2 ? t[2] : 0;
      const std::uint8_t b = static_cast<std::uint8_t>(x_pipe[1] & y_bits[ch][1]);
      const std::uint8_t c = static_cast<std::uint8_t>(m_pipe[1] & n_bits_[ch][1]);
      const std::uint8_t s1 = static_cast<std::uint8_t>(a ^ b ^ c);
      const std::uint8_t ca =
          static_cast<std::uint8_t>((a & b) | (a & c) | (b & c));
      t_next[1] = static_cast<std::uint8_t>(s1 ^ c0[0]);
      const std::uint8_t cb = static_cast<std::uint8_t>(s1 & c0[0]);
      c0_next[1] = static_cast<std::uint8_t>(ca ^ cb);
      c1_next[1] = static_cast<std::uint8_t>(ca & cb);
    }

    // Regular cells.
    for (std::size_t j = 2; j + 1 <= l && k >= j; ++j) {
      const std::size_t ch = channel_of(j);
      const std::uint8_t tin = t[j + 1];
      const std::uint8_t b = static_cast<std::uint8_t>(x_pipe[j] & y_bits[ch][j]);
      const std::uint8_t c = static_cast<std::uint8_t>(m_pipe[j] & n_bits_[ch][j]);
      const std::uint8_t s1 = static_cast<std::uint8_t>(tin ^ b ^ c);
      const std::uint8_t ca =
          static_cast<std::uint8_t>((tin & b) | (tin & c) | (b & c));
      t_next[j] = static_cast<std::uint8_t>(s1 ^ c0[j - 1]);
      const std::uint8_t cb = static_cast<std::uint8_t>(s1 & c0[j - 1]);
      c0_next[j] = static_cast<std::uint8_t>(ca ^ cb ^ c1[j - 1]);
      c1_next[j] = static_cast<std::uint8_t>((ca & cb) | (ca & c1[j - 1]) |
                                             (cb & c1[j - 1]));
    }

    // Leftmost cell (j = l): per-channel top bits.
    std::uint8_t leftmost_t = 0, leftmost_top1 = 0, leftmost_top2 = 0;
    std::size_t ch_l = 0;
    if (k >= l) {
      ch_l = channel_of(l);
      const std::uint8_t a = t_top1[ch_l];
      const std::uint8_t b = static_cast<std::uint8_t>(x_pipe[l] & y_bits[ch_l][l]);
      const std::uint8_t c = c0[l - 1];
      leftmost_t = static_cast<std::uint8_t>(a ^ b ^ c);
      const std::uint8_t ca =
          static_cast<std::uint8_t>((a & b) | (a & c) | (b & c));
      const std::uint8_t a2 = t_top2[ch_l];
      const std::uint8_t c1p = c1[l - 1];
      leftmost_top1 = static_cast<std::uint8_t>(a2 ^ ca ^ c1p);
      leftmost_top2 =
          static_cast<std::uint8_t>((a2 & ca) | (a2 & c1p) | (ca & c1p));
      t_next[l] = leftmost_t;
    }

    // Result capture: token[j] active during cycle k captures into the
    // channel that cell j is serving this cycle.
    for (std::size_t j = 1; j <= l; ++j) {
      if (!token[j]) continue;
      const std::size_t ch = channel_of(j);
      if (j < l) {
        result[ch][j - 1] = t_next[j];
      } else {
        result[ch][l - 1] = leftmost_t;
        result[ch][l] = leftmost_top1;
      }
    }

    // Latch.
    t = std::move(t_next);
    c0 = std::move(c0_next);
    c1 = std::move(c1_next);
    if (k >= l) {
      t_top1[ch_l] = leftmost_top1;
      t_top2[ch_l] = leftmost_top2;
    }
    for (std::size_t j = l; j >= 2; --j) {
      x_pipe[j] = x_pipe[j - 1];
      m_pipe[j] = m_pipe[j - 1];
    }
    x_pipe[1] = x0;
    m_pipe[1] = m0;
    for (std::size_t j = l; j >= 1; --j) token[j] = token[j - 1];
    // Token injections: channel A's final iteration reaches cell 0 at
    // k = 2l+2, channel B's at 2l+3.
    token[0] =
        (k + 1 == 2 * l + 2 || k + 1 == 2 * l + 3) ? 1 : 0;
    // Both X registers shift at the end of odd cycles: channel A consumed
    // x_i during the even cycle 2i and channel B during the odd cycle
    // 2i+1, so the end of cycle 2i+1 is past both consumptions.
    if (k % 2 == 1) {
      for (auto& reg : x_reg) {
        for (std::size_t b = 0; b + 1 <= l; ++b) reg[b] = reg[b + 1];
        reg[l] = 0;
      }
    }
  }

  PairResult out;
  for (std::size_t b = 0; b <= l; ++b) {
    if (result[0][b]) out.a.SetBit(b, true);
    if (result[1][b]) out.b.SetBit(b, true);
  }
  out.cycles = PairCycles(l);
  return out;
}

InterleavedExponentiator::InterleavedExponentiator(BigUInt modulus)
    : reference_(modulus), circuit_(std::move(modulus)) {}

BigUInt InterleavedExponentiator::ModExp(const BigUInt& base,
                                         const BigUInt& exponent,
                                         EngineStats* stats) {
  const BigUInt& n = reference_.Modulus();
  const std::size_t l = reference_.l();
  const auto charge_single = [&] {
    if (stats != nullptr) {
      ++stats->single_issues;
      stats->engine_cycles += MultiplyCycles(l);
    }
  };
  const auto charge_pair = [&] {
    if (stats != nullptr) {
      ++stats->paired_issues;
      stats->engine_cycles += InterleavedMmmc::PairCycles(l);
    }
  };

  std::vector<bignum::ExpStep> steps;
  bignum::BuildExpSchedule(bignum::ExpMode::kRightToLeft, exponent, &steps);
  bignum::ExpExecutor<BigUInt> run(steps, base % n, reference_.RSquaredModN(),
                                   BigUInt{1});
  // Two adjacent steps share one dual-channel issue when the second does
  // not read the first's product: the two domain entries, and A <- A*S
  // with S <- S^2 on a set bit below the top one.  Every other step issues
  // alone on channel A.
  const BigUInt zero;
  while (!run.Done()) {
    const std::span<const bignum::ExpStep> next = run.Remaining();
    if (next.size() > 1 && next[1].x != next[0].dst &&
        next[1].y != next[0].dst) {
      auto pair = circuit_.MultiplyPair(run.X(), run.Y(), run[next[1].x],
                                        run[next[1].y]);
      charge_pair();
      run.Consume(std::move(pair.a));
      run.Consume(std::move(pair.b));
    } else {
      auto pair = circuit_.MultiplyPair(run.X(), run.Y(), zero, zero);
      charge_single();
      run.Consume(std::move(pair.a));
    }
  }
  BigUInt out = run.Result();
  if (out >= n) out -= n;
  return out;
}

}  // namespace mont::core
