// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Runs one seeded workload and prints, as the last line of standard
// output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {"<name>": <value>, ...}}
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 they are the per-layer ones from a traced run, whose trace is
// written to --trace-out.  A metric of a layer the workload does not touch
// is left out.  run.py names and units the metrics from BENCHMARK.json.  A run that cannot be reported (an open-loop
// generator that fell behind its schedule) exits 3 without a result.
// See README.md for the workloads and metrics.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

void RunOutcome::Fail(const std::string& what) {
  if (correct) std::printf("CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

double PeakRssMb() {
  // VmHWM is this program's own high-water mark.  getrusage's ru_maxrss
  // is not: it keeps the peak of the process image before exec, which
  // for a program started from Python is the interpreter's.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <rsa512-mix|bitserial-paired|"
               "gatesim-capture> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

/// Shortest round-trip decimal form: every digit the double carries.
std::string Number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string Quote(const std::string& text) { return "\"" + text + "\""; }

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0 && std::isfinite(options.seconds);
        if (!have_seconds) return Usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const bool service = IsServiceWorkload(options.workload);
  if (!service && options.workload != "gatesim-capture") {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  std::printf("perfbench: workload %s seed %llu seconds %s trace %d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              Number(options.seconds).c_str(), options.trace ? 1 : 0);
  std::fflush(stdout);

  RunOutcome outcome;
  try {
    outcome = service ? RunServiceWorkload(options) : RunGatesimWorkload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }
  if (!outcome.invalid.empty()) {
    std::fprintf(stderr, "perfbench: invalid run, not reported: %s\n",
                 outcome.invalid.c_str());
    return 3;
  }

  std::string metrics;
  for (const auto& [name, value] : outcome.metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(name) + ": " + Number(value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return 0;
}
