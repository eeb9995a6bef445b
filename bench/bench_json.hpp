// bench_json.hpp — minimal machine-readable bench reporting.
//
// Every bench that feeds CI trend tracking writes one BENCH_<name>.json
// next to its stdout table (cf. arXiv:2408.13485 on benchmark discipline:
// a speedup that is not machine-checked is asserted, not tracked).  The
// schema is deliberately flat so a jq one-liner can diff two runs:
//
//   { "bench": "<name>", "schema": 1, "rows": [ {k: v, ...}, ... ] }
//
// No external JSON dependency: values are bool/int/double/string only,
// and strings in bench rows are identifiers (no escaping beyond quotes
// and backslashes is required, but all control characters are handled).
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace mont::bench {

/// True in an AddressSanitizer or ThreadSanitizer build.  Instrumentation
/// slows the measured code and its reference by different factors, so a
/// wall-clock ratio there measures the sanitizer: the timing gates report
/// it as "not measured" instead of judging it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitizerBuild = true;
#else
inline constexpr bool kSanitizerBuild = false;
#endif
#else
inline constexpr bool kSanitizerBuild = false;
#endif

/// One JSON scalar.
class JsonValue {
 public:
  JsonValue(bool v) : text_(v ? "true" : "false") {}  // NOLINT
  JsonValue(int v) : text_(std::to_string(v)) {}      // NOLINT
  JsonValue(long v) : text_(std::to_string(v)) {}               // NOLINT
  JsonValue(long long v) : text_(std::to_string(v)) {}          // NOLINT
  JsonValue(unsigned v) : text_(std::to_string(v)) {}           // NOLINT
  JsonValue(unsigned long v) : text_(std::to_string(v)) {}      // NOLINT
  JsonValue(unsigned long long v) : text_(std::to_string(v)) {}  // NOLINT
  JsonValue(double v) {  // NOLINT
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    text_ = buf;
  }
  JsonValue(const char* v) : text_(Quote(v)) {}         // NOLINT
  JsonValue(const std::string& v) : text_(Quote(v)) {}  // NOLINT

  const std::string& Rendered() const { return text_; }

 private:
  static std::string Quote(const std::string& raw) {
    std::string out = "\"";
    for (const char c : raw) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  std::string text_;
};

/// An ordered list of key/value pairs rendered as one JSON object.
using JsonRow = std::vector<std::pair<std::string, JsonValue>>;

inline std::string RenderRow(const JsonRow& row) {
  std::string out = "{";
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out += ", ";
    out += JsonValue(row[i].first).Rendered();
    out += ": ";
    out += row[i].second.Rendered();
  }
  out += "}";
  return out;
}

/// Writes BENCH_<name>.json in the current directory (the CI bench step
/// collects build/bench/BENCH_*.json as artifacts).  Top-level `meta`
/// pairs land beside "bench"/"schema"; returns the path written.
inline std::string WriteBenchJson(const std::string& name,
                                  const std::vector<JsonRow>& rows,
                                  const JsonRow& meta = {}) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  out << "{\n  \"bench\": " << JsonValue(name).Rendered()
      << ",\n  \"schema\": 1";
  for (const auto& [key, value] : meta) {
    out << ",\n  " << JsonValue(key).Rendered() << ": " << value.Rendered();
  }
  out << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    " << RenderRow(rows[i]) << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  return path;
}

}  // namespace mont::bench
