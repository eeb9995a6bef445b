#include "bignum/exp_schedule.hpp"

#include <algorithm>
#include <stdexcept>

namespace mont::bignum {

void BuildExpSchedule(ExpMode mode, const BigUInt& exponent,
                      std::vector<ExpStep>* steps, std::size_t window_bits) {
  using enum ExpSlot;
  steps->clear();
  const std::size_t bits = exponent.BitLength();
  if (bits == 0) return;
  const auto push = [steps](ExpSlot dst, ExpSlot x, ExpSlot y, ExpOp op) {
    steps->push_back({dst, x, y, op});
  };
  switch (mode) {
    case ExpMode::kAlg3: {
      steps->reserve(bits + exponent.PopCount());
      push(kMont, kBase, kR2, ExpOp::kDomain);
      // The top bit is consumed by the initialisation A = M~, so A is read
      // from M~ until the first squaring writes it.
      ExpSlot a = kMont;
      for (std::size_t i = bits - 1; i-- > 0;) {
        push(kA, a, a, ExpOp::kSquare);
        a = kA;
        if (exponent.Bit(i)) push(kA, kA, kMont, ExpOp::kMultiply);
      }
      push(kA, a, kOne, ExpOp::kDomain);
      return;
    }
    case ExpMode::kRightToLeft:
      steps->reserve(bits + exponent.PopCount() + 2);
      push(kS, kBase, kR2, ExpOp::kDomain);
      push(kA, kOne, kR2, ExpOp::kDomain);
      for (std::size_t i = 0; i < bits; ++i) {
        if (exponent.Bit(i)) push(kA, kA, kS, ExpOp::kMultiply);
        if (i + 1 < bits) push(kS, kS, kS, ExpOp::kSquare);
      }
      push(kA, kA, kOne, ExpOp::kDomain);
      return;
    case ExpMode::kLadder:
      steps->reserve(2 * bits + 3);
      push(kS, kBase, kR2, ExpOp::kDomain);
      push(kA, kOne, kR2, ExpOp::kDomain);
      for (std::size_t i = bits; i-- > 0;) {
        if (exponent.Bit(i)) {
          push(kA, kA, kS, ExpOp::kMultiply);
          push(kS, kS, kS, ExpOp::kSquare);
        } else {
          push(kS, kA, kS, ExpOp::kMultiply);
          push(kA, kA, kA, ExpOp::kSquare);
        }
      }
      push(kA, kA, kOne, ExpOp::kDomain);
      return;
    case ExpMode::kFixedWindow: {
      if (window_bits < 1 || window_bits > kMaxWindowBits) {
        throw std::invalid_argument("BuildExpSchedule: window_bits out of range");
      }
      const std::size_t entries = std::size_t{1} << window_bits;
      const std::size_t windows = (bits + window_bits - 1) / window_bits;
      steps->reserve(entries + windows * (window_bits + 1) + 1);
      push(kMont, kBase, kR2, ExpOp::kDomain);
      push(TableSlot(0), kOne, kR2, ExpOp::kDomain);
      for (std::size_t i = 1; i < entries; ++i) {
        push(TableSlot(i), TableSlot(i - 1), kMont, ExpOp::kMultiply);
      }
      const auto digit = [&](std::size_t window) {
        std::size_t d = 0;
        for (std::size_t b = window_bits; b-- > 0;) {
          d = (d << 1) | (exponent.Bit(window * window_bits + b) ? 1 : 0);
        }
        return TableSlot(d);
      };
      push(kA, TableSlot(0), digit(windows - 1), ExpOp::kMultiply);
      for (std::size_t window = windows - 1; window-- > 0;) {
        for (std::size_t b = 0; b < window_bits; ++b) {
          push(kA, kA, kA, ExpOp::kSquare);
        }
        push(kA, kA, digit(window), ExpOp::kMultiply);
      }
      push(kA, kA, kOne, ExpOp::kDomain);
      return;
    }
  }
}

std::size_t ExpRegisterCount(std::span<const ExpStep> steps) {
  std::size_t count = kExpSlotCount;
  for (const ExpStep& step : steps) {
    for (const ExpSlot slot : {step.dst, step.x, step.y}) {
      count = std::max(count, static_cast<std::size_t>(slot) + 1);
    }
  }
  return count;
}

std::vector<bool> RecoverExponentFromTrace(std::span<const ExpStep> steps) {
  std::vector<ExpOp> ops;
  for (const ExpStep& step : steps) {
    if (step.op != ExpOp::kDomain) ops.push_back(step.op);
  }
  std::vector<bool> bits;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i] != ExpOp::kSquare) continue;
    bits.push_back(i + 1 < ops.size() && ops[i + 1] == ExpOp::kMultiply);
  }
  return bits;
}

}  // namespace mont::bignum
