// bench_drift_check — the CI drift gate over the BENCH_*.json artifacts.
//
//   bench_drift_check <baseline-dir> <current-dir>
//
// Every BENCH_*.json under <baseline-dir> (the committed bench/baseline/
// snapshot) must exist under <current-dir> (the build tree after the perf
// smoke runs) with the same row count and row keys, and every metric must
// sit inside its tolerance class:
//
//   skip     keys matching  wall | per_sec | per_s | iterations | seconds
//            plus the host-throughput ratios batch_speedup and
//            speedup_vs_scalar — wall-clock derived; reported for humans,
//            never gated — and host_ (facts of the measuring host, such
//            as how many CPUs a capture was split across).
//   lenient  keys matching  fraction | speedup | gigacycle | model_cycles |
//            latency — statistics of the *threaded* service benches, which
//            depend on OS scheduling (45% relative, 0.35 absolute slack).
//   strict   everything else — model-derived values (cycle formulas, gate
//            counts, paper constants, deterministic-executor traces) that
//            must reproduce almost exactly (10% relative).
//
// A new artifact in <current-dir> with no committed baseline also fails:
// adding a bench requires refreshing bench/baseline/ in the same change.
// Exits 0 when everything is inside tolerance, 1 otherwise.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// A tiny recursive JSON reader.  Same scope as bench_schema_check's parser
// (the subset bench_json.hpp emits) but value-retaining, since the drift
// gate has to compare numbers, not just validate shape.
// ---------------------------------------------------------------------------

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Value> items;
  std::map<std::string, Value> fields;
};

class Parser {
 public:
  Parser(std::string text, std::string origin)
      : text_(std::move(text)), origin_(std::move(origin)) {}

  Value ParseDocument() {
    Value v = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) Fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    throw std::runtime_error(origin_ + ": " + why + " (at byte " +
                             std::to_string(pos_) + ")");
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool TryConsume(const std::string& word) {
    SkipSpace();
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) Fail("short \\u escape");
            out += '?';  // artifacts are ASCII; keep a placeholder
            pos_ += 4;
            break;
          default: Fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) Fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Value ParseValue() {
    char c = Peek();
    Value v;
    if (c == '{') {
      v.kind = Value::Kind::kObject;
      Expect('{');
      if (Peek() != '}') {
        for (;;) {
          std::string key = ParseString();
          Expect(':');
          v.fields[key] = ParseValue();
          if (Peek() == ',') { ++pos_; continue; }
          break;
        }
      }
      Expect('}');
    } else if (c == '[') {
      v.kind = Value::Kind::kArray;
      Expect('[');
      if (Peek() != ']') {
        for (;;) {
          v.items.push_back(ParseValue());
          if (Peek() == ',') { ++pos_; continue; }
          break;
        }
      }
      Expect(']');
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string_value = ParseString();
    } else if (TryConsume("true")) {
      v.kind = Value::Kind::kBool;
      v.bool_value = true;
    } else if (TryConsume("false")) {
      v.kind = Value::Kind::kBool;
      v.bool_value = false;
    } else if (TryConsume("null")) {
      v.kind = Value::Kind::kNull;
    } else {
      v.kind = Value::Kind::kNumber;
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
              text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
      }
      if (pos_ == start) Fail("expected a JSON value");
      try {
        v.number_value = std::stod(text_.substr(start, pos_ - start));
      } catch (const std::exception&) {
        Fail("malformed number");
      }
    }
    return v;
  }

  std::string text_;
  std::string origin_;
  std::size_t pos_ = 0;
};

Value LoadJson(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parser(buf.str(), path.filename().string()).ParseDocument();
}

// ---------------------------------------------------------------------------
// Tolerance classes
// ---------------------------------------------------------------------------

enum class Tolerance { kSkip, kLenient, kStrict };

bool Contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

Tolerance Classify(const std::string& key) {
  // batch_speedup / speedup_vs_scalar are ratios of two host-throughput
  // measurements, so they inherit the host's load sensitivity.
  for (const char* pat : {"wall", "per_sec", "per_s", "iterations",
                          "seconds", "batch_speedup", "speedup_vs_scalar",
                          "host_"}) {
    if (Contains(key, pat)) return Tolerance::kSkip;
  }
  for (const char* pat : {"fraction", "speedup", "gigacycle", "model_cycles",
                          "latency"}) {
    if (Contains(key, pat)) return Tolerance::kLenient;
  }
  return Tolerance::kStrict;
}

bool NumbersAgree(double base, double cur, Tolerance tol) {
  const double diff = std::fabs(base - cur);
  const double mag = std::max(std::fabs(base), std::fabs(cur));
  const double rel = mag > 0 ? diff / mag : 0.0;
  if (tol == Tolerance::kLenient) return rel <= 0.45 || diff <= 0.35;
  return rel <= 0.10 || diff <= 1e-9;
}

struct Report {
  int failures = 0;
  int compared = 0;
  int skipped = 0;

  void Fail(const std::string& what) {
    ++failures;
    std::printf("  DRIFT %s\n", what.c_str());
  }
};

std::string Describe(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kBool: return v.bool_value ? "true" : "false";
    case Value::Kind::kString: return "\"" + v.string_value + "\"";
    case Value::Kind::kNumber: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%g", v.number_value);
      return buf;
    }
    default: return "<non-scalar>";
  }
}

void CompareRow(const std::string& artifact, std::size_t row_index,
                const Value& base_row, const Value& cur_row, Report& report) {
  const std::string where = artifact + " row " + std::to_string(row_index);
  for (const auto& [key, base_val] : base_row.fields) {
    auto it = cur_row.fields.find(key);
    if (it == cur_row.fields.end()) {
      report.Fail(where + ": key '" + key + "' missing from current run");
      continue;
    }
    const Value& cur_val = it->second;
    if (Classify(key) == Tolerance::kSkip) {
      ++report.skipped;
      continue;
    }
    ++report.compared;
    if (base_val.kind != cur_val.kind) {
      report.Fail(where + " '" + key + "': type changed (" +
                  Describe(base_val) + " -> " + Describe(cur_val) + ")");
      continue;
    }
    switch (base_val.kind) {
      case Value::Kind::kNumber:
        if (!NumbersAgree(base_val.number_value, cur_val.number_value,
                          Classify(key))) {
          // Name the artifact, row and key with both values and the
          // percent delta, so a red CI run reads as "what moved, by how
          // much" without opening either JSON file.
          const double base_num = base_val.number_value;
          const double cur_num = cur_val.number_value;
          char delta[48];
          if (base_num != 0.0) {
            std::snprintf(delta, sizeof delta, "%+.2f%%",
                          100.0 * (cur_num - base_num) / std::fabs(base_num));
          } else {
            std::snprintf(delta, sizeof delta, "baseline was 0");
          }
          char buf[256];
          std::snprintf(buf, sizeof buf,
                        "%s key '%s': baseline %g -> current %g (%s, outside "
                        "%s tolerance)",
                        where.c_str(), key.c_str(), base_num, cur_num, delta,
                        Classify(key) == Tolerance::kLenient
                            ? "lenient 45%-relative"
                            : "strict 10%-relative");
          report.Fail(buf);
        }
        break;
      case Value::Kind::kBool:
        if (base_val.bool_value != cur_val.bool_value) {
          report.Fail(where + " '" + key + "': " + Describe(base_val) +
                      " -> " + Describe(cur_val));
        }
        break;
      case Value::Kind::kString:
        if (base_val.string_value != cur_val.string_value) {
          report.Fail(where + " '" + key + "': " + Describe(base_val) +
                      " -> " + Describe(cur_val));
        }
        break;
      default:
        report.Fail(where + " '" + key + "': unexpected non-scalar value");
        break;
    }
  }
  for (const auto& [key, cur_val] : cur_row.fields) {
    (void)cur_val;
    if (base_row.fields.find(key) == base_row.fields.end()) {
      report.Fail(where + ": new key '" + key +
                  "' absent from baseline (refresh bench/baseline/)");
    }
  }
}

void CompareArtifact(const std::string& name, const Value& base,
                     const Value& cur, Report& report) {
  const auto rows_of = [&](const Value& doc, const char* which)
      -> const std::vector<Value>* {
    auto it = doc.fields.find("rows");
    if (it == doc.fields.end() || it->second.kind != Value::Kind::kArray) {
      report.Fail(name + ": " + which + " has no rows array");
      return nullptr;
    }
    return &it->second.items;
  };
  const std::vector<Value>* base_rows = rows_of(base, "baseline");
  const std::vector<Value>* cur_rows = rows_of(cur, "current");
  if (!base_rows || !cur_rows) return;
  if (base_rows->size() != cur_rows->size()) {
    report.Fail(name + ": row count " + std::to_string(base_rows->size()) +
                " -> " + std::to_string(cur_rows->size()));
    return;
  }
  for (std::size_t i = 0; i < base_rows->size(); ++i) {
    if ((*base_rows)[i].kind != Value::Kind::kObject ||
        (*cur_rows)[i].kind != Value::Kind::kObject) {
      report.Fail(name + " row " + std::to_string(i) + ": not an object");
      continue;
    }
    CompareRow(name, i, (*base_rows)[i], (*cur_rows)[i], report);
  }
}

std::map<std::string, fs::path> ListArtifacts(const fs::path& dir) {
  std::map<std::string, fs::path> out;
  if (!fs::is_directory(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json") {
      out[name] = entry.path();
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <baseline-dir> <current-dir>\n", argv[0]);
    return 2;
  }
  const fs::path baseline_dir = argv[1];
  const fs::path current_dir = argv[2];
  if (!fs::is_directory(baseline_dir)) {
    std::fprintf(stderr, "baseline dir %s does not exist\n", argv[1]);
    return 2;
  }

  const auto baselines = ListArtifacts(baseline_dir);
  const auto currents = ListArtifacts(current_dir);
  if (baselines.empty()) {
    std::fprintf(stderr, "no BENCH_*.json baselines under %s\n", argv[1]);
    return 2;
  }

  std::printf("=== bench drift gate: %zu baseline artifact(s) ===\n",
              baselines.size());
  Report report;
  for (const auto& [name, base_path] : baselines) {
    auto it = currents.find(name);
    std::printf("%s\n", name.c_str());
    if (it == currents.end()) {
      report.Fail(name + ": artifact missing from current run (" +
                  current_dir.string() + ")");
      continue;
    }
    try {
      const Value base = LoadJson(base_path);
      const Value cur = LoadJson(it->second);
      CompareArtifact(name, base, cur, report);
    } catch (const std::exception& e) {
      report.Fail(e.what());
    }
  }
  for (const auto& [name, path] : currents) {
    (void)path;
    if (baselines.find(name) == baselines.end()) {
      report.Fail(name +
                  ": produced by current run but has no committed baseline "
                  "(add it to bench/baseline/)");
    }
  }

  std::printf(
      "\n%d metric(s) compared, %d host-dependent key(s) skipped, "
      "%d drift failure(s)\n",
      report.compared, report.skipped, report.failures);
  if (report.failures != 0) {
    std::printf("FAIL: refresh bench/baseline/ if the change is intended\n");
    return 1;
  }
  std::printf("OK: all artifacts within tolerance\n");
  return 0;
}
