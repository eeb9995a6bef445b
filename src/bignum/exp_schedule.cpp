#include "bignum/exp_schedule.hpp"

namespace mont::bignum {

void BuildExpSchedule(ExpMode mode, const BigUInt& exponent,
                      std::vector<ExpStep>* steps) {
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
  }
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
