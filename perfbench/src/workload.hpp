// workload.hpp — what a workload run takes and gives back.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics with tracing off.  true: per-layer metrics
  /// from a traced run (plus an untraced phase for the overhead ratio).
  bool trace = false;
  /// Where a traced run writes its chrome://tracing JSON (empty = none).
  std::string trace_out;
};

struct RunOutcome {
  /// Every independent correctness check passed.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Non-empty when the run cannot be reported (for example the open-loop
  /// generator fell behind its schedule): the reason.
  std::string invalid;
  /// Metric values by name; BENCHMARK.json declares their units.
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Records a failed check; the run stays reportable but not correct.
  void Fail(const std::string& what);
};

bool IsServiceWorkload(const std::string& name);
RunOutcome RunServiceWorkload(const RunOptions& options);
RunOutcome RunGatesimWorkload(const RunOptions& options);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
