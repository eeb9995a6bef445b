#include "tracing.hpp"

#include <atomic>

namespace perfbench {

std::uint64_t NextRequestId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

TraceView ReadTrace(const mont::obs::Tracer& tracer) {
  TraceView view;
  view.dropped = tracer.DroppedEvents();
  for (const mont::obs::TraceEvent& event : tracer.SortedEvents()) {
    if (event.kind == mont::obs::TraceEvent::Kind::kComplete) {
      view.spans.push_back(
          {event.name, event.id, event.track, event.ts, event.ts + event.dur});
    } else {
      view.instants[event.name].emplace_back(event.id, event.ts);
    }
  }
  view.self = SelfTimes(view.spans);
  return view;
}

std::vector<double> TraceView::SelfTimesOf(const std::string& name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) out.push_back(static_cast<double>(self[i]));
  }
  return out;
}

std::vector<double> TraceView::DurationsOf(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) out.push_back(static_cast<double>(span.end - span.start));
  }
  return out;
}

}  // namespace perfbench
