// swmon_perfbench — the swmond end-to-end benchmark binary.
//
//   swmon_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--smoke] [--git-sha <sha>] [--spans-out <csv>]
//
// --trace 0 measures the end-to-end metrics (throughput, detection and
// control latency, set-up time, RSS growth) on a live daemon; --trace 1
// runs the traced re-enactment and the per-layer passes. Both print one
// `metric <name> <value> <unit> ...` line per metric, a `meta {...}` line,
// and as the last line one JSON object {correct, attempted, failed,
// metrics}. The exit code is non-zero when any output disagrees with the
// oracle. --smoke shrinks the streams 5x for a seconds-long check.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "stats.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string git_sha = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--git-sha") {
      a->git_sha = value;
    } else if (flag == "--spans-out") {
      a->spans_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end && *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (a->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (a->seconds <= 0 || (a->trace != 0 && a->trace != 1)) {
    *error = "--seconds must be > 0 and --trace 0 or 1";
    return false;
  }
  return true;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMeta(const Args& a, const Workload& w, const EncodedStream& s) {
  swmon::MonitorConfig config;
  const char* engine = swmon::EngineKindName(
      swmon::ResolveEngineKind(w.properties.front(), config));
  std::ostringstream out;
  out << "meta {\"workload\":" << JsonString(w.name)
      << ",\"seed\":" << a.seed << ",\"events\":" << s.size()
      << ",\"rate_eps\":" << Num(w.rate_eps)
      << ",\"stream_bytes\":" << s.bytes.size()
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << JsonString(CpuModel())
      << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
      << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
      << ",\"engine\":" << JsonString(engine)
      << ",\"batch\":0,\"workers\":" << w.workers << ",\"shard_mode\":"
      << JsonString(w.workers > 1
                        ? (w.shard_mode == swmon::ShardMode::kInstance
                               ? "instance"
                               : w.shard_mode == swmon::ShardMode::kAuto
                                     ? "auto"
                                     : "property")
                        : "serial")
      << ",\"git_sha\":" << JsonString(a.git_sha)
      << ",\"smoke\":" << (a.smoke ? "true" : "false")
      << ",\"transport\":\"loopback tcp\"}";
  std::printf("%s\n", out.str().c_str());
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-44s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out << ", ";
    out << JsonString(metrics[i].name) << ": {\"value\": "
        << Num(metrics[i].value) << ", \"unit\": "
        << JsonString(metrics[i].unit) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

std::string Samples(std::size_t n) { return "n=" + std::to_string(n); }

int RunEndToEndMode(const Args& a, const Workload& w,
                    const EncodedStream& s) {
  const EndToEndResult r = RunEndToEnd(w, s, a.seconds);
  if (!r.error.empty() && r.oracle_ok && r.throughput_eps.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
    return 2;
  }
  std::vector<double> detect_all, control_all;
  for (const auto& rep : r.detect_us)
    detect_all.insert(detect_all.end(), rep.begin(), rep.end());
  for (const auto& rep : r.control_ms)
    control_all.insert(control_all.end(), rep.begin(), rep.end());
  const TailReport detect = Tail(detect_all);
  const TailReport control = Tail(control_all);
  const TailReport late = Tail(r.late_us);
  const std::string unmet =
      r.unmet_open_reps ? "; UNMET at this rate: " +
                              std::to_string(r.unmet_open_reps) +
                              " open-loop reps fell behind"
                        : "";
  const std::string pooled = " pooled over " + std::to_string(r.open_reps) +
                             " open-loop reps";
  // Gated: closed-loop throughput and set-up time hold steady from run
  // to run on a shared box; open-loop latencies, their tails and peak RSS
  // do not (see README.md), so they are reported but not gated.
  const std::vector<Metric> metrics = {
      {"throughput_eps", Median(r.throughput_eps), "events/s",
       "median of " + Samples(r.throughput_eps.size()) + " closed-loop reps"},
      {"setup_s", Median(r.setup_s), "s",
       "median of " + Samples(r.setup_s.size()) + " set-ups"},
  };
  const std::vector<Metric> info = {
      {"detect_p50_us", Percentile(detect_all, 50), "us",
       Samples(detect_all.size()) + pooled + unmet},
      {"detect_p99_us", detect.value, "us",
       "p" + Num(detect.pct) + " of " + Samples(detect.samples) + pooled +
           unmet},
      {"control_p50_ms", Percentile(control_all, 50), "ms",
       Samples(control_all.size()) + pooled},
      {"control_p99_ms", control.value, "ms",
       "p" + Num(control.pct) + " of " + Samples(control.samples) + pooled},
      {"rss_mb", Median(r.rss_mb), "MB",
       "median of " + Samples(r.rss_mb.size()) + " reps"},
      {"gen.late_p99_us", late.value, "us",
       "p" + Num(late.pct) + " of " + Samples(late.samples) + " events"},
      {"gen.backlog_end", Median(r.backlog_end), "events",
       "median of " + Samples(r.backlog_end.size()) + " open-loop reps"},
  };
  for (const Metric& i : info)
    std::printf("info   %-44s %14.6g %-9s %s\n", i.name.c_str(), i.value,
                i.unit.c_str(), i.note.c_str());
  const double error_rate =
      r.attempted ? static_cast<double>(r.failed()) / r.attempted : 0;
  std::printf(
      "info   error_rate %.6g (failed %llu / attempted %llu: not_ingested %llu "
      "decode_errors %llu missing %llu extra %llu ring_dropped %llu "
      "control_non2xx %llu)\n",
      error_rate, static_cast<unsigned long long>(r.failed()),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.not_ingested),
      static_cast<unsigned long long>(r.decode_errors),
      static_cast<unsigned long long>(r.missing),
      static_cast<unsigned long long>(r.extra),
      static_cast<unsigned long long>(r.ring_dropped),
      static_cast<unsigned long long>(r.control_errors));
  std::printf("info   throughput per closed-loop rep:");
  for (const double v : r.throughput_eps) std::printf(" %.0f", v);
  std::printf("\n");
  if (!r.error.empty())
    std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
  const bool correct = r.oracle_ok && r.error.empty() && r.missing == 0 &&
                       r.extra == 0 && r.not_ingested == 0 &&
                       r.decode_errors == 0 && r.ring_dropped == 0;
  PrintResult(correct, std::max<std::uint64_t>(r.attempted, 1), r.failed(),
              metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  std::string error;
  if (!ParseArgs(argc, argv, &a, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  // Shipped defaults only: an engine or batch override would silently
  // measure a configuration users do not run.
  for (const char* var : {"SWMON_ENGINE", "SWMON_BATCH"}) {
    if (std::getenv(var)) {
      std::fprintf(stderr,
                   "perfbench: %s is set; the benchmark measures shipped "
                   "defaults only — unset it\n",
                   var);
      return 2;
    }
  }
  const Workload* w = FindWorkload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const std::size_t events = a.smoke ? w->events / 5 : w->events;
  const EncodedStream stream = Encode(*w, a.seed, events);
  PrintMeta(a, *w, stream);
  if (a.trace == 0) return RunEndToEndMode(a, *w, stream);
  std::vector<Metric> metrics;
  TracedSummary summary;
  const bool ok = RunTraced(*w, stream, a.spans_out, &metrics, &summary);
  PrintResult(ok, std::max<std::uint64_t>(summary.attempted, 1),
              summary.failed, metrics);
  return ok ? 0 : 1;
}
