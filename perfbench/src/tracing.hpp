// tracing.hpp — the benchmark's own spans and clocks.
//
// The benchmark records spans around each call it makes into a layer's
// public function, into the same obs::Tracer the program's ExpService and
// SigningService emit their job.* / crt.* events into, so one exported
// trace holds both.  Every request gets a process-wide unique id, which
// is also the trace id the program propagates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

/// Track numbers (rendered as the thread id in the trace viewer) of the
/// benchmark's own spans, kept clear of the program's worker indexes.
inline constexpr std::uint64_t kGeneratorTrack = 100;
inline constexpr std::uint64_t kResponseTrack = 101;
inline constexpr std::uint64_t kReplayTrack = 102;

/// Steady-clock nanoseconds (the same clock obs::Tracer::NowTicks uses).
inline std::uint64_t NowNs() { return mont::obs::Tracer::NowTicks(); }

/// Unique across the whole process, so trace ids never collide.
std::uint64_t NextRequestId();

/// Records [construction, destruction) as a complete span when `tracer` is
/// non-null and enabled.
class ScopedSpan {
 public:
  ScopedSpan(mont::obs::Tracer* tracer, const char* name, std::uint64_t id,
             std::uint64_t track)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        id_(id),
        track_(track),
        start_(tracer_ != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Complete(name_, id_, track_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  mont::obs::Tracer* tracer_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t track_;
  std::uint64_t start_;
};

/// Median per-call nanoseconds of `fn` over 15 batches of at least 2 ms.
template <typename Fn>
double KernelNs(Fn&& fn) {
  std::size_t calls = 1;
  while (true) {  // calibrate the batch size
    const std::uint64_t t0 = NowNs();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (NowNs() - t0 >= 2'000'000 || calls >= (std::size_t{1} << 24)) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < 15; ++batch) {
    const std::uint64_t t0 = NowNs();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(calls));
  }
  return Percentile(per_call, 500);
}

/// The buffered events of a tracer, grouped for analysis.
struct TraceView {
  std::vector<Span> spans;  ///< every complete event
  std::vector<std::uint64_t> self;  ///< SelfTimes(spans)
  /// Instant events by name: (id, ts) pairs in time order.
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      instants;
  std::uint64_t dropped = 0;

  /// Self times (ns) of every span called `name`.
  std::vector<double> SelfTimesOf(const std::string& name) const;
  /// Durations (ns) of every span called `name`.
  std::vector<double> DurationsOf(const std::string& name) const;
};
TraceView ReadTrace(const mont::obs::Tracer& tracer);

}  // namespace perfbench
