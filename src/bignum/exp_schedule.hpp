// exp_schedule.hpp — the one place an exponent becomes a sequence of
// Montgomery multiplications.
//
// The paper's §4.5 exponentiator is a fixed chain of MMMs: the
// pre-computation Mont(M, R^2), a squaring per scanned exponent bit plus a
// multiply by M~ per set bit (Algorithm 3), and the post-processing
// Mont(A, 1).  BuildExpSchedule writes that chain, or one of the three
// other orders the tree uses (right to left, the ladder, and the fixed
// window that key generation's Miller-Rabin runs on the 64-bit CIOS
// kernel), as steps over a fixed set of registers.  Every exponentiator
// executes such a schedule with its own multiplier (software Algorithm 2
// or CIOS, the cycle-accurate arrays, the gate-level netlist)
// and takes its operation counts from the steps, so the exponent-to-steps
// decision is made here and nowhere else.
#pragma once

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
  /// First window-table entry: kTable + i holds M~^i (kFixedWindow).
  kTable,
};
/// Registers every schedule may use; window-table entries come after them.
inline constexpr std::size_t kExpSlotCount = 6;
/// Widest window kFixedWindow accepts: a table of 2^6 entries.
inline constexpr std::size_t kMaxWindowBits = 6;

/// Window-table entry i (0 <= i < 2^kMaxWindowBits).
constexpr ExpSlot TableSlot(std::size_t i) {
  return static_cast<ExpSlot>(kExpSlotCount + i);
}
constexpr bool IsTableSlot(ExpSlot slot) {
  return static_cast<std::size_t>(slot) >= kExpSlotCount;
}

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
  /// Fixed window of w bits, left to right: M~ <- Mont(M, R^2), the table
  /// T[0] <- Mont(1, R^2), T[i] <- Mont(T[i-1], M~) for i < 2^w; the top
  /// window is A <- Mont(T[0], T[d]); per lower window w squarings of A and
  /// one A <- A * T[d], digit 0 included; A <- Mont(A, 1).  The operation
  /// sequence depends only on the exponent's bit length.  Table entries
  /// are read as x only at fixed positions while the table is built; a
  /// window's entry is always the y operand, so a constant-time executor
  /// fetches every y table entry by scanning the whole table.
  kFixedWindow,
};

/// The window width the word-level kernel's ModExp runs kFixedWindow at.
inline constexpr std::size_t kDefaultWindowBits = 5;

/// Replaces *steps with the schedule of `mode` for `exponent`, reusing the
/// buffer's capacity.  Exponent 0 gives an empty schedule.  `window_bits`
/// (1..kMaxWindowBits) is kFixedWindow's w; the other modes ignore it.
void BuildExpSchedule(ExpMode mode, const BigUInt& exponent,
                      std::vector<ExpStep>* steps,
                      std::size_t window_bits = kDefaultWindowBits);

/// Registers `steps` touches: kExpSlotCount plus the window table's size.
std::size_t ExpRegisterCount(std::span<const ExpStep> steps);

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
/// through Remaining()/X()/Y()/Consume().  Table entries are indexed
/// directly, so this executor is a reference, not a constant-time one.
template <class Value>
class ExpExecutor {
 public:
  /// `steps` must outlive the executor.  A starts at `one`, so the empty
  /// schedule of exponent 0 leaves 1 as the result.
  ExpExecutor(std::span<const ExpStep> steps, Value base, Value r2, Value one)
      : steps_(steps), slots_(ExpRegisterCount(steps)) {
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
  std::vector<Value> slots_;
};

}  // namespace mont::bignum
