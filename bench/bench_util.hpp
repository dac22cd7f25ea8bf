// Small shared helpers for the experiment harnesses.
//
// Each bench binary regenerates one of the paper's artifacts (Table 1,
// Table 2, or a Sec-3.3 claim) and prints it. Benches with scalar results
// additionally record them through JsonReporter so the bench trajectory
// (BENCH_<name>.json) is machine-readable and reproducible: the `bench`
// CMake target runs them with SWMON_BENCH_JSON_DIR pointed at the build
// tree. EXPERIMENTS.md records the outputs next to the paper's claims.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

// Set per target by bench/CMakeLists.txt; the fallbacks keep the header
// usable from any other build.
#ifndef SWMON_BENCH_COMPILER
#define SWMON_BENCH_COMPILER "unknown"
#endif
#ifndef SWMON_BENCH_BUILD_TYPE
#define SWMON_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef SWMON_SOURCE_DIR
#define SWMON_SOURCE_DIR "."
#endif

namespace swmon::bench {

inline void Header(const char* experiment, const char* paper_artifact,
                   const char* claim) {
  std::printf("\n================================================================================\n");
  std::printf("%s — reproduces %s\n", experiment, paper_artifact);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================================\n");
}

inline void Section(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

inline std::string Pad(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

/// Wall-clock seconds one call of `run` takes.
template <typename F>
double Seconds(F&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// What PairedAB measured: per-side median seconds and the distribution of
/// the per-pair ratios b/a.
struct PairedTiming {
  double a_s = 0;
  double b_s = 0;
  double ratio = 0;  // median of the per-pair ratios: what gates compare
  double ratio_q1 = 0;
  double ratio_q3 = 0;
};

/// Runs `pairs` interleaved A/B pairs, alternating which side goes first
/// so frequency drift, a noisy co-tenant or an order effect land on both
/// sides alike. Each callable returns the seconds it timed, so set-up can
/// stay outside the timed region. Gating on the median per-pair ratio
/// means one disturbed rep moves one ratio, not the verdict — best-of on
/// each side compares two unrelated quiet moments instead.
template <typename A, typename B>
PairedTiming PairedAB(int pairs, A&& a, B&& b) {
  std::vector<double> as, bs, ratios;
  for (int i = 0; i < pairs; ++i) {
    double ta = 0, tb = 0;
    if (i % 2 == 0) {
      ta = a();
      tb = b();
    } else {
      tb = b();
      ta = a();
    }
    as.push_back(ta);
    bs.push_back(tb);
    ratios.push_back(tb / ta);
  }
  const auto quantile = [](std::vector<double> v, std::size_t num,
                           std::size_t den) {
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) * num / den];
  };
  PairedTiming t;
  t.a_s = quantile(as, 1, 2);
  t.b_s = quantile(bs, 1, 2);
  t.ratio = quantile(ratios, 1, 2);
  t.ratio_q1 = quantile(ratios, 1, 4);
  t.ratio_q3 = quantile(ratios, 3, 4);
  return t;
}

/// The CPU model string from /proc/cpuinfo, or "unknown".
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      return line.substr(colon + 2);
  }
  return "unknown";
}

/// HEAD of the source tree the bench was built from, suffixed "-dirty"
/// when that tree has uncommitted changes; "unknown" outside git.
inline std::string GitSha() {
  std::string sha;
  const std::string cmd =
      std::string("git -C \"") + SWMON_SOURCE_DIR +
      "\" describe --always --dirty --abbrev=40 2>/dev/null";
  if (std::FILE* p = popen(cmd.c_str(), "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), p)) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

/// Collects rows of {key: string|number} results and writes them as
/// BENCH_<name>.json — one JSON object with a "results" array — either into
/// $SWMON_BENCH_JSON_DIR (set by the `bench` CMake target) or the current
/// directory. Keys are emitted in insertion order; numbers use %.6g so
/// output is stable across runs of identical measurements.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : name_(std::move(bench_name)) {}

  class Row {
   public:
    Row& Num(const std::string& key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      fields_.emplace_back(key, buf);
      numeric_.push_back(true);
      return *this;
    }
    Row& Str(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, value);
      numeric_.push_back(false);
      return *this;
    }

   private:
    friend class JsonReporter;
    std::vector<std::pair<std::string, std::string>> fields_;
    std::vector<bool> numeric_;
  };

  Row& AddRow() { return rows_.emplace_back(); }

  /// Adds a top-level "meta" object recording where the rows were
  /// measured: hardware threads, CPU model, compiler, build type, the
  /// engine(s) the rows ran and the git SHA.
  void SetMeta(const std::string& engine) {
    meta_ = Row{};
    meta_->Num("hardware_threads",
               static_cast<double>(std::thread::hardware_concurrency()))
        .Str("cpu", CpuModel())
        .Str("compiler", SWMON_BENCH_COMPILER)
        .Str("build_type", SWMON_BENCH_BUILD_TYPE)
        .Str("engine", engine)
        .Str("git_sha", GitSha());
  }

  /// Target path: $SWMON_BENCH_JSON_DIR/BENCH_<name>.json when the env var
  /// is set, else ./BENCH_<name>.json.
  std::string DefaultPath() const {
    const char* dir = std::getenv("SWMON_BENCH_JSON_DIR");
    const std::string base = "BENCH_" + name_ + ".json";
    return dir && *dir ? std::string(dir) + "/" + base : base;
  }

  std::string ToJson() const {
    std::string out = "{\"bench\": " + Quote(name_);
    if (meta_) out += ",\n \"meta\": " + ObjectJson(*meta_);
    out += ", \"results\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out += r ? ",\n  " : "\n  ";
      out += ObjectJson(rows_[r]);
    }
    out += "\n]}\n";
    return out;
  }

  /// Writes the JSON file and prints where it went. Returns false (after
  /// printing a warning) when the path is unwritable.
  bool Flush() const {
    const std::string path = DefaultPath();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) {
      std::printf("[bench] cannot write %s\n", path.c_str());
      return false;
    }
    const std::string json = ToJson();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    std::fclose(f);
    std::printf("[bench] wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return ok;
  }

 private:
  static std::string ObjectJson(const Row& row) {
    std::string out = "{";
    for (std::size_t i = 0; i < row.fields_.size(); ++i) {
      if (i) out += ", ";
      out += Quote(row.fields_[i].first) + ": ";
      out += row.numeric_[i] ? row.fields_[i].second
                             : Quote(row.fields_[i].second);
    }
    return out + "}";
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  std::string name_;
  std::optional<Row> meta_;
  std::vector<Row> rows_;
};

}  // namespace swmon::bench
