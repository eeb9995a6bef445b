// chaos.cpp — deterministic fault injection decisions.
#include "server/chaos.hpp"

#include <chrono>
#include <thread>
#include <vector>

namespace mont::server {

ChaosLayer::ChaosLayer(ChaosOptions options, obs::Registry* registry)
    : options_(options), rng_(options.seed) {
  if (registry == nullptr) return;
  metrics_.worker_stalls = registry->GetCounter("chaos.worker_stalls");
  metrics_.crt_corruptions = registry->GetCounter("chaos.crt_corruptions");
  metrics_.requests_dropped = registry->GetCounter("chaos.requests_dropped");
  metrics_.responses_dropped =
      registry->GetCounter("chaos.responses_dropped");
  metrics_.frames_garbled = registry->GetCounter("chaos.frames_garbled");
}

bool ChaosLayer::Draw(double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // 53-bit uniform draw — deterministic per seed, platform-independent.
  const std::uint64_t word = rng_.Next() >> 11;
  const double u = static_cast<double>(word) * 0x1.0p-53;
  return u < rate;
}

void ChaosLayer::OnWorkerIssue(std::size_t worker) {
  if (options_.stall_worker < 0 ||
      static_cast<std::size_t>(options_.stall_worker) != worker) {
    return;
  }
  metrics_.worker_stalls.Increment();
  if (options_.stall_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(options_.stall_micros));
  }
}

bool ChaosLayer::ShouldCorruptCrtHalf() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!Draw(options_.corrupt_crt_rate)) return false;
  metrics_.crt_corruptions.Increment();
  return true;
}

void ChaosLayer::CorruptValue(bignum::BigUInt& value) {
  std::size_t bit;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t bits = value.BitLength();
    bit = bits == 0 ? 0 : static_cast<std::size_t>(rng_.NextBelow(bits));
  }
  // XOR one bit: add it when clear, subtract when set.
  const bignum::BigUInt mask = bignum::BigUInt::PowerOfTwo(bit);
  if (value.Bit(bit)) {
    value -= mask;
  } else {
    value += mask;
  }
}

bool ChaosLayer::ShouldDropRequest() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!Draw(options_.drop_request_rate)) return false;
  metrics_.requests_dropped.Increment();
  return true;
}

bool ChaosLayer::ShouldDropResponse() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!Draw(options_.drop_response_rate)) return false;
  metrics_.responses_dropped.Increment();
  return true;
}

bool ChaosLayer::MaybeGarbleFrame(std::vector<std::uint8_t>& frame) {
  std::lock_guard<std::mutex> lk(mu_);
  if (frame.empty() || !Draw(options_.garble_frame_rate)) return false;
  // Garble past the length prefix so the frame still parses as a frame —
  // the *payload* decode must catch it (bad magic/field/trailing bytes).
  const std::size_t lo = frame.size() > 4 ? 4 : 0;
  const std::size_t index =
      lo + static_cast<std::size_t>(rng_.NextBelow(frame.size() - lo));
  frame[index] ^= static_cast<std::uint8_t>(1 + rng_.NextBelow(255));
  metrics_.frames_garbled.Increment();
  return true;
}

std::uint64_t ChaosLayer::SlowTenantDelayMicros(std::uint32_t tenant_id) const {
  if (options_.slow_tenant < 0 ||
      static_cast<std::uint64_t>(options_.slow_tenant) != tenant_id) {
    return 0;
  }
  return options_.slow_tenant_micros;
}

}  // namespace mont::server
