// exp_schedule.hpp — the one place an exponent becomes a sequence of
// Montgomery multiplications.
//
// The paper's §4.5 exponentiator is a fixed chain of MMMs: the
// pre-computation Mont(M, R^2), a squaring per scanned exponent bit plus a
// multiply by M~ per set bit (Algorithm 3), and the post-processing
// Mont(A, 1).  BuildExpSchedule writes that chain, or one of the two other
// orders the tree uses, as steps over a fixed set of registers.  Every
// exponentiator executes such a schedule with its own multiplier (software
// Algorithm 2 or CIOS, the cycle-accurate arrays, the gate-level netlist)
// and takes its operation counts from the steps, so the exponent-to-steps
// decision is made here and nowhere else.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bignum/biguint.hpp"

namespace mont::bignum {

/// Registers a schedule step reads and writes.
enum class ExpSlot : std::uint8_t {
  kA,     ///< accumulator; holds the Montgomery-domain result at the end
  kS,     ///< second register of the two-register modes
  kMont,  ///< M~, the base in the Montgomery domain
  kBase,  ///< input: the reduced base M
  kR2,    ///< input: R^2 mod N, the domain-entry factor
  kOne,   ///< input: the constant 1
};
inline constexpr std::size_t kExpSlotCount = 6;

/// What an observer of the MMM sequence (simple power analysis) sees.
enum class ExpOp : std::uint8_t {
  kDomain,    ///< domain entry (y = R^2) or exit (y = 1)
  kSquare,    ///< x and y are the same register
  kMultiply,  ///< a main-loop product of two different registers
};

/// One Montgomery multiplication: dst <- Mont(x, y).
struct ExpStep {
  ExpSlot dst;
  ExpSlot x;
  ExpSlot y;
  ExpOp op;

  friend bool operator==(const ExpStep&, const ExpStep&) = default;
};

enum class ExpMode : std::uint8_t {
  /// The paper's Algorithm 3, left to right: M~ <- Mont(M, R^2); the top
  /// bit is the initial A = M~; per lower bit A <- A^2 and, if it is set,
  /// A <- A * M~; A <- Mont(A, 1).  bits(e) + popcount(e) steps.
  kAlg3,
  /// Right to left: S <- Mont(M, R^2), A <- Mont(1, R^2); per bit from the
  /// bottom A <- A * S if it is set, then S <- S^2 while higher bits
  /// remain; A <- Mont(A, 1).  The squarings do not depend on the bits.
  kRightToLeft,
  /// Montgomery ladder (Joye-Yen): S <- Mont(M, R^2), A <- Mont(1, R^2);
  /// per bit from the top (A <- A * S, S <- S^2) if it is set, else
  /// (S <- A * S, A <- A^2); A <- Mont(A, 1).  Every bit costs one
  /// multiply and one squaring, so the operation sequence is the same for
  /// all exponents of one bit length.
  kLadder,
};

/// Replaces *steps with the schedule of `mode` for `exponent`, reusing the
/// buffer's capacity.  Exponent 0 gives an empty schedule.
void BuildExpSchedule(ExpMode mode, const BigUInt& exponent,
                      std::vector<ExpStep>* steps);

/// The simple-power-analysis reading of a schedule's square/multiply
/// sequence (domain steps are skipped): a squaring followed by a multiply
/// reads as a 1-bit, a squaring followed by another squaring (or by the
/// end) as a 0-bit.  On a kAlg3 schedule that is the exponent's bits below
/// the leading one, MSB first.  A ladder schedule decodes to the same
/// pattern for every exponent of its length.
std::vector<bool> RecoverExponentFromTrace(std::span<const ExpStep> steps);

/// Runs a schedule over registers of type Value (one BigUInt, or one value
/// per lane): each step stores multiply(x, y) in dst.  Run() executes every
/// step; executors that issue two steps at once take them one at a time
/// through Remaining()/X()/Y()/Consume().
template <class Value>
class ExpExecutor {
 public:
  /// `steps` must outlive the executor.  A starts at `one`, so the empty
  /// schedule of exponent 0 leaves 1 as the result.
  ExpExecutor(std::span<const ExpStep> steps, Value base, Value r2, Value one)
      : steps_(steps) {
    slots_[Index(ExpSlot::kA)] = one;
    slots_[Index(ExpSlot::kBase)] = std::move(base);
    slots_[Index(ExpSlot::kR2)] = std::move(r2);
    slots_[Index(ExpSlot::kOne)] = std::move(one);
  }

  bool Done() const { return next_ == steps_.size(); }
  /// The steps not yet executed, the next one first.
  std::span<const ExpStep> Remaining() const { return steps_.subspan(next_); }

  const Value& operator[](ExpSlot slot) const { return slots_[Index(slot)]; }
  /// Operands of the next step.
  const Value& X() const { return (*this)[steps_[next_].x]; }
  const Value& Y() const { return (*this)[steps_[next_].y]; }

  /// Stores the next step's product and moves past it.
  void Consume(Value product) {
    slots_[Index(steps_[next_].dst)] = std::move(product);
    ++next_;
  }

  template <class Multiply>
  void Run(Multiply&& multiply) {
    while (!Done()) Consume(multiply(X(), Y()));
  }

  /// The accumulator: the Montgomery-domain exit's output once Done().
  const Value& Result() const { return (*this)[ExpSlot::kA]; }

 private:
  static constexpr std::size_t Index(ExpSlot slot) {
    return static_cast<std::size_t>(slot);
  }

  std::span<const ExpStep> steps_;
  std::size_t next_ = 0;
  std::array<Value, kExpSlotCount> slots_{};
};

}  // namespace mont::bignum
