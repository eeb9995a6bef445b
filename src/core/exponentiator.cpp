#include "core/exponentiator.hpp"

#include <stdexcept>
#include <utility>

namespace mont::core {

using bignum::BigUInt;

Exponentiator::Exponentiator(BigUInt modulus, std::string_view engine,
                             const EngineOptions& options)
    : engine_(MakeEngine(engine, std::move(modulus), options)) {}

Exponentiator::Exponentiator(std::unique_ptr<MmmEngine> engine)
    : engine_(std::move(engine)) {
  if (engine_ == nullptr) {
    throw std::invalid_argument("Exponentiator: engine must not be null");
  }
}

BigUInt Exponentiator::ModExp(const BigUInt& base, const BigUInt& exponent,
                              EngineStats* stats) const {
  return engine_->ModExp(base, exponent, stats);
}

}  // namespace mont::core
