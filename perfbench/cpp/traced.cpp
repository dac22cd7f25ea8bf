#include "traced.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "daemon/event_source.hpp"
#include "daemon/tenant.hpp"
#include "harness.hpp"
#include "monitor/monitor_set.hpp"
#include "netsim/trace_io.hpp"
#include "spl/spl.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using swmon::DataplaneEvent;
using swmon::telemetry::Snapshot;

// ------------------------------------------------------------- spans

/// The pump loop's layers, in the order a round visits them.
enum class Layer : std::uint8_t {
  kRound,         // one pump round (the shared id of its children)
  kPoll,          // SocketSource::Poll — socket read + decode hand-off
  kIdle,          // the pump's idle wait after an empty poll
  kClamp,         // monotone time clamp
  kDeliver,       // Tenant::Deliver, one span per event
  kDrainEngines,  // Tenant::DrainEngines
  kFlush,         // Tenant::Flush (the quiet point before commands)
  kDrainRing,     // Tenant::DrainRing (the consumer's command)
};
constexpr const char* kLayerNames[] = {"round",         "poll",  "idle",
                                       "clamp",         "deliver",
                                       "drain_engines", "flush", "drain_ring"};
constexpr std::size_t kNumLayers = std::size(kLayerNames);

struct Span {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t round;
  Layer layer;
};

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// In-memory span log; a disabled tracer records nothing (the untraced
/// re-enactment runs the same code).
class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t reserve) : enabled_(enabled) {
    if (enabled_) spans_.reserve(reserve);
  }
  template <class F>
  void Span(Layer layer, std::uint32_t round, F&& f) {
    if (!enabled_) {
      f();
      return;
    }
    const std::int64_t t0 = NowNs();
    f();
    spans_.push_back({t0, NowNs(), round, layer});
  }
  const std::vector<perfbench::Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<perfbench::Span> spans_;
};

struct PumpResult {
  double wall_s = 0;
  std::uint64_t rounds = 0;  // rounds that delivered events
  std::uint64_t clamped = 0;
  std::uint64_t ring_dropped = 0;
  std::vector<ViolationKey> keys;
  std::vector<perfbench::Span> spans;
  /// Snapshot costs measured on the loaded tenant after the stream.
  std::vector<double> collect_us, prometheus_us, json_us;
  double prometheus_bytes = 0;
};

/// Re-enacts SwmonDaemon::PumpLoop on this thread over a standalone
/// SocketSource and Tenant, in the daemon's order: Poll, clamp, Deliver,
/// DrainEngines, then the closed loop's per-round consumer command
/// (Flush + DrainRing).
bool ReenactPump(const Workload& w, const EncodedStream& s, bool trace,
                 PumpResult* out, std::string* error) {
  swmon::TenantOptions topts;
  topts.workers = w.workers;
  topts.shard_mode = w.shard_mode;
  swmon::Tenant tenant(kTenant, topts);
  for (const swmon::Property& p : w.properties) {
    if (!tenant.AttachSpl(swmon::SerializeSpl(p), error)) return false;
  }
  swmon::SocketSourceOptions sopts;
  sopts.tcp_enabled = true;
  swmon::SocketSource source(sopts);
  if (!source.Start(error)) return false;
  const int fd = ConnectLoopback(source.tcp_port());
  if (fd < 0) {
    if (error) *error = "event connection refused";
    return false;
  }
  const swmon::SwmondOptions defaults;
  Tracer tracer(trace, 4 * s.size() + 1024);
  std::vector<DataplaneEvent> round;
  swmon::SimTime last = swmon::SimTime::Zero();
  std::uint64_t delivered = 0;
  std::uint32_t round_id = 0;

  const auto t0 = Clock::now();
  std::thread sender([&] {
    SendAll(fd, s.bytes.data(), s.bytes.size());
    ::close(fd);
  });
  while (delivered < s.size()) {
    if (SecondsSince(t0) > 60) break;
    ++round_id;
    tracer.Span(Layer::kRound, round_id, [&] {
      round.clear();
      tracer.Span(Layer::kPoll, round_id, [&] { source.Poll(round); });
      if (round.empty()) {
        tracer.Span(Layer::kIdle, round_id, [&] {
          std::this_thread::sleep_for(
              std::chrono::microseconds(defaults.idle_sleep_us));
        });
        return;
      }
      tracer.Span(Layer::kClamp, round_id, [&] {
        for (DataplaneEvent& ev : round) {
          if (ev.time < last) {
            ev.time = last;
            ++out->clamped;
          } else {
            last = ev.time;
          }
        }
      });
      for (const DataplaneEvent& ev : round)
        tracer.Span(Layer::kDeliver, round_id, [&] { tenant.Deliver(ev); });
      delivered += round.size();
      ++out->rounds;
      tracer.Span(Layer::kDrainEngines, round_id,
                  [&] { tenant.DrainEngines(); });
      tracer.Span(Layer::kFlush, round_id, [&] { tenant.Flush(); });
      tracer.Span(Layer::kDrainRing, round_id, [&] {
        for (const swmon::Violation& v : tenant.DrainRing())
          out->keys.push_back(KeyOf(v));
      });
    });
  }
  out->wall_s = SecondsSince(t0);
  // Stop first: it shuts the connection, so a sender still blocked on a
  // full socket (the loop above timed out) returns.
  source.Stop();
  sender.join();
  if (delivered != s.size()) {
    if (error) *error = "re-enactment ingested " + std::to_string(delivered) +
                        " of " + std::to_string(s.size()) + " events";
    return false;
  }
  out->ring_dropped = tenant.violations_dropped();
  out->spans = tracer.spans();

  // The control plane's snapshot work, on the loaded tenant.
  for (int i = 0; i < 15; ++i) {
    Snapshot snap;
    auto t = Clock::now();
    tenant.CollectInto(snap);
    out->collect_us.push_back(SecondsSince(t) * 1e6);
    t = Clock::now();
    const std::string prom = snap.ToPrometheusText();
    out->prometheus_us.push_back(SecondsSince(t) * 1e6);
    out->prometheus_bytes = static_cast<double>(prom.size());
    t = Clock::now();
    const std::string json = snap.ToJson();
    out->json_us.push_back(SecondsSince(t) * 1e6);
  }
  return true;
}

/// Self time per layer: a span's duration minus its children's (the
/// children of a round run one after another, so they never overlap).
std::array<double, kNumLayers> SelfSeconds(
    const std::vector<perfbench::Span>& spans) {
  std::array<double, kNumLayers> self{};
  for (const perfbench::Span& sp : spans) {
    const double d = static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
    self[static_cast<std::size_t>(sp.layer)] += d;
    if (sp.layer != Layer::kRound)
      self[static_cast<std::size_t>(Layer::kRound)] -= d;
  }
  return self;
}

void WriteSpans(const std::string& path,
                const std::vector<perfbench::Span>& spans) {
  std::ofstream out(path);
  if (!out) return;
  out << "round,layer,parent,start_ns,end_ns\n";
  for (const perfbench::Span& sp : spans) {
    out << sp.round << ',' << kLayerNames[static_cast<std::size_t>(sp.layer)]
        << ',' << (sp.layer == Layer::kRound ? "" : "round") << ','
        << sp.start_ns << ',' << sp.end_ns << '\n';
  }
}

// ------------------------------------------------------- layer passes

/// Decodes `s` in 64 KiB chunks and calls `sink(events, n)` per chunk;
/// returns the seconds spent inside `sink` only.
template <class Sink>
double TimedFeed(const EncodedStream& s, Sink&& sink) {
  swmon::TraceEventDecoder decoder;
  std::vector<DataplaneEvent> chunk;
  double inside = 0;
  constexpr std::size_t kChunk = 1 << 16;
  for (std::size_t off = EncodedStream::kHeaderBytes; off < s.bytes.size();
       off += kChunk) {
    decoder.Feed(s.bytes.data() + off, std::min(kChunk, s.bytes.size() - off));
    chunk.clear();
    DataplaneEvent ev;
    while (decoder.Next(ev) == swmon::TraceEventDecoder::Result::kEvent)
      chunk.push_back(ev);
    const auto t = Clock::now();
    sink(chunk);
    inside += SecondsSince(t);
  }
  return inside;
}

/// A fresh MonitorSet over the stream, three times: the median ns/event
/// inside OnDataplaneEvent, and the set's telemetry after the last pass.
double SetPass(const std::vector<swmon::Property>& props,
               const EncodedStream& s, Snapshot* snap) {
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    swmon::MonitorSet set;
    for (const swmon::Property& p : props) set.Add(p);
    const double secs =
        TimedFeed(s, [&](const std::vector<DataplaneEvent>& c) {
          for (const DataplaneEvent& ev : c) set.OnDataplaneEvent(ev);
        });
    ns.push_back(secs * 1e9 / static_cast<double>(s.size()));
    if (snap) *snap = set.TelemetrySnapshot();
  }
  return Median(ns);
}

struct ParallelPass {
  double publish_ns_per_event = 0;
  std::vector<double> drain_us;
  Snapshot snap;
  std::vector<ViolationKey> keys;
};

/// A ParallelMonitorSet (2 workers, instance sharding) over the stream,
/// drained every pump-round-sized batch as the daemon's tenant is.
ParallelPass RunParallelPass(const std::vector<swmon::Property>& props,
                             const EncodedStream& s) {
  ParallelPass r;
  swmon::ParallelConfig config;
  config.workers = 2;
  config.shard_mode = swmon::ShardMode::kInstance;
  swmon::ParallelMonitorSet set(config);
  for (const swmon::Property& p : props) set.Add(p);
  set.Start();
  const std::size_t round = swmon::SwmondOptions{}.max_round_events;
  std::size_t since_drain = 0;
  double publish_s = 0;
  const auto drain = [&] {
    const auto t = Clock::now();
    std::vector<swmon::Violation> vs = set.DrainViolations();
    r.drain_us.push_back(SecondsSince(t) * 1e6);
    for (const swmon::Violation& v : vs) r.keys.push_back(KeyOf(v));
  };
  TimedFeed(s, [&](const std::vector<DataplaneEvent>& c) {
    for (std::size_t i = 0; i < c.size();) {
      const std::size_t n = std::min(c.size() - i, round - since_drain);
      const auto t = Clock::now();
      for (std::size_t k = i; k < i + n; ++k) set.OnDataplaneEvent(c[k]);
      publish_s += SecondsSince(t);
      i += n;
      since_drain += n;
      if (since_drain == round) {
        drain();
        since_drain = 0;
      }
    }
  });
  drain();
  r.snap = set.TelemetrySnapshot();
  set.Stop();
  r.publish_ns_per_event = publish_s * 1e9 / static_cast<double>(s.size());
  return r;
}

double MedianUs(const std::function<void()>& f, int reps) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    f();
    us.push_back(SecondsSince(t) * 1e6);
  }
  return Median(us);
}

std::string N(std::size_t n) { return "n=" + std::to_string(n); }

}  // namespace

bool RunTraced(const Workload& w, const EncodedStream& s,
               const std::string& spans_path, std::vector<Metric>* out,
               TracedSummary* summary) {
  const double n = static_cast<double>(s.size());
  std::string error;
  bool correct = true;
  std::vector<ViolationKey> expected;
  if (!RunOracle(w.properties, s, &expected)) {
    std::fprintf(stderr, "perfbench: stream does not decode\n");
    return false;
  }
  const auto check = [&](const char* what, std::vector<ViolationKey> keys) {
    const MultisetDiff d = CompareMultisets(expected, std::move(keys));
    summary->attempted += expected.size();
    summary->failed += d.failures();
    if (d.failures()) {
      correct = false;
      std::printf("info oracle mismatch in %s: %zu missing, %zu extra\n", what,
                  d.missing, d.extra);
    }
  };
  const auto add = [&](std::string name, double value, std::string unit,
                       std::string note = "") {
    out->push_back({std::move(name), value, std::move(unit), std::move(note)});
  };

  // --- the daemon, untraced: end-to-end per-event time (median of three
  // closed loops), pump counters, RSS growth, and the HTTP plane on the
  // loaded daemon.
  std::vector<std::string> spl;
  for (const swmon::Property& p : w.properties)
    spl.push_back(swmon::SerializeSpl(p));
  // The daemon and both re-enactments are interleaved three times, and
  // each figure is the median, so a slow phase of the box hits all three
  // alike.
  std::vector<ClosedOutcome> daemon_runs(3);
  std::vector<PumpResult> plain_runs(3), traced_runs(3);
  std::vector<double> e2e_ns_runs, rss_runs, plain_wall, http_ms[5];
  for (int i = 0; i < 3; ++i) {
    ClosedOutcome& run = daemon_runs[i];
    if (!RunClosed(w, s, spl, 8, &run, &error) ||
        !ReenactPump(w, s, false, &plain_runs[i], &error) ||
        !ReenactPump(w, s, true, &traced_runs[i], &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return false;
    }
    summary->attempted += 3 * s.size() + 40;
    summary->failed +=
        s.size() - std::min<std::uint64_t>(s.size(), run.ingested) +
        run.control_errors + run.attach_failures;
    check("daemon", std::move(run.keys));
    check("untraced re-enactment", std::move(plain_runs[i].keys));
    check("traced re-enactment", std::move(traced_runs[i].keys));
    e2e_ns_runs.push_back(run.seconds * 1e9 / n);
    rss_runs.push_back(run.rss_mb);
    plain_wall.push_back(plain_runs[i].wall_s);
    for (int op = 0; op < 5; ++op)
      http_ms[op].insert(http_ms[op].end(), run.control_ms[op].begin(),
                         run.control_ms[op].end());
  }
  const ClosedOutcome& daemon = daemon_runs.front();
  const double e2e_ns = Median(e2e_ns_runs);
  const std::uint64_t rounds =
      daemon.after.counter("daemon.pump_rounds") -
      daemon.before.counter("daemon.pump_rounds");
  // The traced re-enactment with the median wall time supplies the spans.
  std::sort(traced_runs.begin(), traced_runs.end(),
            [](const PumpResult& a, const PumpResult& b) {
              return a.wall_s < b.wall_s;
            });
  const PumpResult& traced = traced_runs[1];
  const auto self = SelfSeconds(traced.spans);
  const auto layer = [&](Layer l) { return self[static_cast<std::size_t>(l)]; };
  double named = 0;
  for (std::size_t i = 1; i < kNumLayers; ++i) named += self[i];
  if (!spans_path.empty()) WriteSpans(spans_path, traced.spans);

  // --- standalone layer passes.
  std::vector<double> decode_ns;
  for (int rep = 0; rep < 3; ++rep) {
    swmon::TraceEventDecoder decoder;
    DataplaneEvent ev;
    std::uint64_t count = 0;
    const auto t = Clock::now();
    constexpr std::size_t kChunk = 1 << 16;
    for (std::size_t off = EncodedStream::kHeaderBytes; off < s.bytes.size();
         off += kChunk) {
      decoder.Feed(s.bytes.data() + off,
                   std::min(kChunk, s.bytes.size() - off));
      while (decoder.Next(ev) == swmon::TraceEventDecoder::Result::kEvent)
        ++count;
    }
    decode_ns.push_back(SecondsSince(t) * 1e9 / n);
    if (count != s.size()) correct = false;
  }

  // SocketSource alone: loopback read + decode + queue, drained by Poll.
  double source_ns = 0;
  std::uint64_t source_decode_errors = 0;
  {
    swmon::SocketSourceOptions sopts;
    sopts.tcp_enabled = true;
    swmon::SocketSource source(sopts);
    if (!source.Start(&error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return false;
    }
    const int fd = ConnectLoopback(source.tcp_port());
    std::vector<DataplaneEvent> sink;
    std::size_t got = 0;
    const auto t = Clock::now();
    std::thread sender([&] {
      SendAll(fd, s.bytes.data(), s.bytes.size());
      ::close(fd);
    });
    while (got < s.size() && SecondsSince(t) < 60) {
      sink.clear();
      source.Poll(sink);
      got += sink.size();
      if (sink.empty()) std::this_thread::yield();
    }
    source_ns = SecondsSince(t) * 1e9 / n;
    source.Stop();
    sender.join();
    source_decode_errors = source.decode_errors();
    if (got != s.size()) correct = false;
  }

  // MonitorSet: the workload's set, an empty-set baseline, and each layer
  // property alone.
  Snapshot set_snap;
  const double set_ns = SetPass(w.properties, s, &set_snap);
  const double baseline_ns = SetPass({}, s, nullptr);
  struct EngineRow {
    std::string name;
    double ns = 0, checks = 0, peak = 0;
  };
  std::vector<EngineRow> engines;
  double attached_engine_ns = 0;
  for (const swmon::Property& p : LayerProperties()) {
    Snapshot snap;
    const double ns = SetPass({p}, s, &snap) - baseline_ns;
    const std::string prefix = "monitor.engine." + p.name + ".";
    engines.push_back(
        {p.name, ns,
         static_cast<double>(snap.counter(prefix + "candidate_checks")) / n,
         static_cast<double>(snap.gauge(prefix + "peak_live"))});
    for (const swmon::Property& q : w.properties)
      if (q.name == p.name) attached_engine_ns += ns;
  }
  const double dispatched =
      static_cast<double>(set_snap.counter("monitor.set.events_dispatched"));
  const double filtered =
      static_cast<double>(set_snap.counter("monitor.set.events_filtered"));

  const ParallelPass par = RunParallelPass(w.properties, s);
  check("parallel pass", par.keys);
  std::int64_t high_water = 0;
  std::vector<double> replica_live;
  for (const auto& [name, sample] : par.snap.samples()) {
    if (name.starts_with("monitor.parallel.worker.") &&
        name.ends_with(".ring_high_water"))
      high_water = std::max(high_water, sample.gauge);
    if (name.starts_with("monitor.parallel.shard.") &&
        name.ends_with(".live_instances"))
      replica_live.push_back(static_cast<double>(sample.gauge));
  }
  double skew = 1;
  if (!replica_live.empty()) {
    double sum = 0;
    for (const double v : replica_live) sum += v;
    const double mean = sum / static_cast<double>(replica_live.size());
    if (mean > 0)
      skew = *std::max_element(replica_live.begin(), replica_live.end()) / mean;
  }

  // --- metrics, grouped by module.
  add("trace_io.decode_ns_per_event", Median(decode_ns), "ns",
      "median of 3 passes, 64 KiB chunks");
  add("trace_io.bytes_per_event",
      static_cast<double>(s.bytes.size() - EncodedStream::kHeaderBytes) / n,
      "B");
  add("event_source.ns_per_event", source_ns, "ns", "loopback, Poll-drained");
  add("event_source.decode_errors", static_cast<double>(source_decode_errors),
      "count");
  add("pump.events_per_round", rounds ? n / static_cast<double>(rounds) : n,
      "events", N(rounds) + " daemon rounds");
  add("daemon.rss_growth_mb", Median(rss_runs), "MB",
      "peak RSS over the pre-Start baseline, median of 3 closed loops");
  add("pump.clamped",
      static_cast<double>(daemon.after.counter("daemon.events_clamped")),
      "count");
  add("tenant.deliver_ns_per_event", layer(Layer::kDeliver) * 1e9 / n, "ns");
  const double busy_rounds = static_cast<double>(std::max<std::uint64_t>(
      traced.rounds, 1));
  add("tenant.drain_us_per_round", layer(Layer::kDrainEngines) * 1e6 /
      busy_rounds, "us", N(traced.rounds) + " rounds");
  add("tenant.flush_us", layer(Layer::kFlush) * 1e6 / busy_rounds, "us");
  add("violation_ring.dropped", static_cast<double>(traced.ring_dropped),
      "count");
  add("monitor_set.ns_per_event", set_ns, "ns");
  add("monitor_set.dispatch_ns_per_event", set_ns - attached_engine_ns, "ns",
      "set minus its engines alone");
  add("monitor_set.filtered_share",
      dispatched + filtered > 0 ? filtered / (dispatched + filtered) : 0,
      "ratio");
  for (const EngineRow& e : engines) {
    add("engine." + e.name + ".ns_per_event", e.ns, "ns",
        "one-property set minus empty set");
    add("engine." + e.name + ".checks_per_event", e.checks, "count");
    add("engine." + e.name + ".peak_live", e.peak, "count");
  }
  add("timers.armed_per_kevent",
      static_cast<double>(set_snap.counter("monitor.engine.*.timers_armed")) *
          1e3 / n,
      "count");
  add("timers.stale_pops_per_kevent",
      static_cast<double>(
          set_snap.counter("monitor.engine.*.timer_stale_pops")) *
          1e3 / n,
      "count");
  add("parallel.publish_ns_per_event", par.publish_ns_per_event, "ns",
      "2 workers, instance sharding");
  add("parallel.drain_us", Median(par.drain_us), "us", N(par.drain_us.size()));
  add("parallel.pool_exhausted_waits",
      static_cast<double>(
          par.snap.counter("monitor.parallel.batch_pool.exhausted_waits")),
      "count");
  add("parallel.ring_high_water", static_cast<double>(high_water), "batches");
  add("parallel.replica_live_skew", skew, "ratio",
      N(replica_live.size()) + " replicas");
  add("telemetry.collect_us", Median(traced.collect_us), "us");
  add("telemetry.prometheus_us", Median(traced.prometheus_us), "us");
  add("telemetry.json_us", Median(traced.json_us), "us");
  add("telemetry.prometheus_bytes", traced.prometheus_bytes, "B");
  const char* http_names[5] = {"http.metrics_ms", "http.telemetry_ms",
                               "http.violations_ms", "http.attach_ms",
                               "http.detach_ms"};
  for (int i = 0; i < 5; ++i)
    add(http_names[i], Median(http_ms[i]), "ms",
        N(http_ms[i].size()) + " on the loaded daemon");
  swmon::MonitorConfig config;
  for (const swmon::Property& p : LayerProperties()) {
    const std::string text = swmon::SerializeSpl(p);
    add("spl." + p.name + ".parse_us",
        MedianUs([&] { (void)swmon::ParseSpl(text); }, 25), "us");
    add("monitor." + p.name + ".create_us",
        MedianUs([&] { (void)swmon::CreatePropertyMonitor(p, config); }, 25),
        "us");
  }
  const double coverage = named / traced.wall_s;
  const double layer_sum_share = named * 1e9 / n / e2e_ns;
  add("trace.coverage", coverage, "ratio", "layer self time / wall");
  add("trace.overhead", traced.wall_s / Median(plain_wall), "ratio",
      "traced / untraced re-enactment wall");

  std::printf("info layers per event (ns):");
  for (std::size_t i = 0; i < kNumLayers; ++i)
    std::printf(" %s=%.1f", kLayerNames[i], self[i] * 1e9 / n);
  std::printf(" | end-to-end %.1f\n", e2e_ns);
  if (std::abs(layer_sum_share - 1) > 0.15) {
    std::printf(
        "info layer-sum check FAILED: layers sum to %.3f of the end-to-end "
        "per-event time; unaccounted share %+.3f\n",
        layer_sum_share, 1 - layer_sum_share);
  } else {
    std::printf("info layer-sum check ok: layers sum to %.3f of the "
                "end-to-end per-event time\n",
                layer_sum_share);
  }
  return correct;
}

}  // namespace perfbench
