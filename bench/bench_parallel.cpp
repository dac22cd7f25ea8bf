// Parallel — sharded worker-pool monitor execution (DESIGN.md "Parallel
// execution"): aggregate events/sec with all 13 Table-1 engines attached,
// serial MonitorSet versus ParallelMonitorSet sweeping workers x batch size
// x properties, plus calibrated (cost-balanced) versus uniform sharding.
// Sec 3.3 wants per-packet cost constant as properties grow; PR 2's filter
// cut wasted deliveries, this path adds the other axis — spreading the
// remaining real work across cores the way a hardware pipeline spreads
// stages. Violation counts are cross-checked against serial on every
// configuration (exit 1 on mismatch).
//
// Also sweeps the single-hot-property case (the paper's million-user
// monitor): ONE shard-eligible keyed property with >=100k concurrent
// instances, serial versus ShardMode::kInstance at 1..8 workers — the
// configuration property-level sharding cannot speed up at all.
//
// Emits BENCH_parallel.json via bench_util's JsonReporter. Knobs (env):
//   SWMON_BENCH_JSON_DIR           where the JSON lands (bench target sets it)
//   SWMON_BENCH_PARALLEL_EVENTS    stream length (default 30000)
//   SWMON_BENCH_PARALLEL_WORKERS   max workers swept (default 8)
//   SWMON_BENCH_TINY               CI smoke: shrink streams AND enforce the
//                                  batching-overhead gate (the median of
//                                  interleaved serial/1-worker pairs, the
//                                  producer and the worker on two pinned
//                                  CPUs, must stay within 1.3x; exit 1
//                                  past it)
// Speedup is bounded by available cores — on a 1-core container the sweep
// degenerates to ~1x and mainly measures batching overhead (which is
// exactly what the CI gate pins).
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "monitor/property_builder.hpp"
#include "monitor/shard_plan.hpp"
#include "properties/catalog.hpp"

namespace swmon {
namespace {

const bool kTiny = std::getenv("SWMON_BENCH_TINY") != nullptr;
const int kReps = 3;
// Interleaved serial/1-worker pairs behind the batching-overhead gate.
const int kGatePairs = 61;

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const long parsed = std::atol(v);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// A mixed-scenario stream: interleaved TCP flows with matching egress,
/// ARP request/reply chatter, DHCP handshakes, FTP control traffic, and
/// link flaps — every Table-1 property family sees events it can react to,
/// so engine costs are heterogeneous (which is what makes cost-balanced
/// sharding matter).
std::vector<DataplaneEvent> MixedScenarioStream(std::size_t count,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  events.reserve(count);
  // Recently seen TCP flows; some egress events drop their return traffic
  // (a firewall violation), and the 100us clock lets ARP/DHCP reply
  // deadlines lapse mid-stream — the parity check needs real violations.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flows;
  for (std::size_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    ev.time = SimTime::Zero() + Duration::Micros(static_cast<std::int64_t>(
                                    100 * (i + 1)));
    const auto roll = rng.NextBelow(100);
    if (roll < 40) {  // TCP arrival
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kPacketId, i + 1);
      const std::uint64_t src = 1000 + rng.NextBelow(48);
      const std::uint64_t dst = 2000 + rng.NextBelow(48);
      ev.fields.Set(FieldId::kIpSrc, src);
      ev.fields.Set(FieldId::kIpDst, dst);
      ev.fields.Set(FieldId::kIpProto, 6);
      ev.fields.Set(FieldId::kL4SrcPort, 30000 + rng.NextBelow(256));
      ev.fields.Set(FieldId::kL4DstPort, rng.NextBool(0.5) ? 80 : 443);
      ev.fields.Set(FieldId::kEthSrc, 0xa0 + rng.NextBelow(16));
      if (flows.size() < 64) flows.emplace_back(src, dst);
    } else if (roll < 55) {  // egress (some of it return traffic / drops)
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kPacketId, i + 1);
      if (!flows.empty() && rng.NextBool(0.3)) {
        // Return traffic for an established flow, occasionally dropped.
        const auto& [src, dst] = flows[rng.NextBelow(flows.size())];
        ev.fields.Set(FieldId::kIpSrc, dst);
        ev.fields.Set(FieldId::kIpDst, src);
      } else {
        ev.fields.Set(FieldId::kIpSrc, 2000 + rng.NextBelow(48));
        ev.fields.Set(FieldId::kIpDst, 1000 + rng.NextBelow(48));
      }
      ev.fields.Set(FieldId::kOutPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kEgressAction,
                    static_cast<std::uint64_t>(
                        rng.NextBool(0.1) ? EgressActionValue::kDrop
                                          : EgressActionValue::kForward));
    } else if (roll < 70) {  // ARP
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kArpOp, rng.NextBool(0.5) ? 1 : 2);
      ev.fields.Set(FieldId::kArpSenderIp, 10 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kArpTargetIp, 10 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kArpSenderMac, 0xb0 + rng.NextBelow(24));
    } else if (roll < 85) {  // DHCP
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kDhcpMsgType, 1 + rng.NextBelow(5));
      ev.fields.Set(FieldId::kDhcpChaddr, 0xc0 + rng.NextBelow(16));
      ev.fields.Set(FieldId::kDhcpXid, 1 + rng.NextBelow(64));
      ev.fields.Set(FieldId::kDhcpYiaddr, 300 + rng.NextBelow(16));
    } else if (roll < 95) {  // FTP control
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kIpSrc, 1000 + rng.NextBelow(48));
      ev.fields.Set(FieldId::kIpDst, 2000 + rng.NextBelow(48));
      ev.fields.Set(FieldId::kL4DstPort, 21);
      ev.fields.Set(FieldId::kFtpMsgKind, rng.NextBelow(3));
      ev.fields.Set(FieldId::kFtpDataAddr, 1000 + rng.NextBelow(48));
      ev.fields.Set(FieldId::kFtpDataPort, 5000 + rng.NextBelow(64));
    } else {  // link flap
      ev.type = DataplaneEventType::kLinkStatus;
      ev.fields.Set(FieldId::kLinkId, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kLinkUp, rng.NextBool(0.5) ? 1 : 0);
    }
    events.push_back(std::move(ev));
  }
  return events;
}

std::vector<Property> Table1Properties(std::size_t count) {
  std::vector<Property> props;
  for (const CatalogEntry& e : BuildCatalog()) {
    if (!e.in_table1) continue;
    props.push_back(e.property);
    if (props.size() == count) break;
  }
  return props;
}

double BestSeconds(const std::function<void()>& run) {
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double s = bench::Seconds(run);
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

std::size_t RunSerialOnce(const std::vector<Property>& props,
                          const std::vector<DataplaneEvent>& events) {
  MonitorSet set;
  for (const Property& p : props) set.Add(p);
  for (const DataplaneEvent& ev : events) set.OnDataplaneEvent(ev);
  // Summed across engines via the snapshot wildcard query.
  return set.TelemetrySnapshot().counter("monitor.engine.*.violations");
}

std::size_t RunParallelOnce(const std::vector<Property>& props,
                            const std::vector<DataplaneEvent>& events,
                            std::size_t workers, std::size_t batch,
                            const std::vector<double>* weights,
                            ShardMode mode = ShardMode::kProperty,
                            bool pin_threads = false) {
  ParallelConfig cfg;
  cfg.workers = workers;
  cfg.batch_capacity = batch;
  cfg.shard_mode = mode;
  cfg.pin_threads = pin_threads;
  ParallelMonitorSet set(cfg);
  for (std::size_t i = 0; i < props.size(); ++i)
    set.Add(props[i], {}, weights ? (*weights)[i] : 1.0);
  set.Start();
  for (const DataplaneEvent& ev : events) set.OnDataplaneEvent(ev);
  set.Stop();
  return set.TelemetrySnapshot().counter("monitor.engine.*.violations");
}

/// The hot property: arrival binds a (src, dst) pair; a later drop of the
/// reversed pair violates. Shard-eligible (both vars are stage-0 field
/// bindings that stage 1 pins with indexable equalities), so kInstance can
/// split its instance population across every worker.
Property HotPairProperty() {
  PropertyBuilder b("hot-pairs", "single hot property, many instances");
  const VarId A = b.Var("A"), B = b.Var("B");
  b.AddStage("outbound")
      .Match(PatternBuilder::Arrival().Build())
      .Bind(A, FieldId::kIpSrc)
      .Bind(B, FieldId::kIpDst)
      .Window(Duration::Seconds(3600))
      .RefreshOnRematch();
  b.AddStage("return dropped")
      .Match(PatternBuilder::Egress()
                 .EqVar(FieldId::kIpSrc, B)
                 .EqVar(FieldId::kIpDst, A)
                 .Dropped()
                 .Build());
  return std::move(b).Build();
}

/// Mostly-unique arrivals (each a fresh instance, all inside one long
/// window) plus drop egresses over the same pair space. With a key space
/// sized to the stream, the live population grows to >=100k concurrent
/// instances — the regime where one property saturates one core.
std::vector<DataplaneEvent> HotPairStream(std::size_t count,
                                          std::uint64_t keys,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    ev.time = SimTime::Zero() +
              Duration::Micros(static_cast<std::int64_t>(10 * (i + 1)));
    ev.fields.Set(FieldId::kIpSrc, rng.NextBelow(keys));
    ev.fields.Set(FieldId::kIpDst, rng.NextBelow(keys));
    if (rng.NextBool(0.8)) {
      ev.type = DataplaneEventType::kArrival;
    } else {
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kEgressAction,
                    static_cast<std::uint64_t>(EgressActionValue::kDrop));
    }
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace
}  // namespace swmon

int main() {
  using namespace swmon;
  bench::Header(
      "bench_parallel", "Sec 3.3 (aggregate monitor throughput)",
      "engine state is independent across properties, so sharding engines "
      "over a worker pool scales aggregate events/sec with cores while the "
      "violation output stays bit-identical to serial execution");

  const std::size_t kEvents =
      EnvSize("SWMON_BENCH_PARALLEL_EVENTS", kTiny ? 6000 : 30000);
  const std::size_t kMaxWorkers = EnvSize("SWMON_BENCH_PARALLEL_WORKERS", 8);
  std::printf("hardware threads: %zu | events: %zu | reps: %d (best-of)%s\n",
              HardwareWorkerCount(), kEvents, kReps,
              kTiny ? " | TINY gate mode" : "");

  bench::JsonReporter json("parallel");
  const auto events = MixedScenarioStream(kEvents, 42);

  // Calibration sample: a prefix of the same stream shape (fresh engines —
  // the probe engines are throwaway, so the measured run starts cold).
  const auto sample = MixedScenarioStream(2000, 7);

  for (const std::size_t nprops : {4u, 13u}) {
    const std::vector<Property> props = Table1Properties(nprops);
    const auto weights = CalibrateShardWeights(props, sample);

    const std::size_t serial_violations = RunSerialOnce(props, events);
    const double serial_s =
        BestSeconds([&] { RunSerialOnce(props, events); });
    const double serial_eps = static_cast<double>(kEvents) / serial_s;
    bench::Section(("serial baseline, " + std::to_string(props.size()) +
                    " properties")
                       .c_str());
    std::printf("  %.0f events/sec (%.1f ns/event), %zu violations\n",
                serial_eps, 1e9 * serial_s / static_cast<double>(kEvents),
                serial_violations);
    json.AddRow()
        .Str("mode", "serial")
        .Num("properties", static_cast<double>(props.size()))
        .Num("workers", 0)
        .Num("batch", 0)
        .Num("events_per_sec", serial_eps)
        .Num("speedup", 1.0)
        .Num("violations", static_cast<double>(serial_violations));

    bench::Section(("parallel sweep, " + std::to_string(props.size()) +
                    " properties (calibrated shards)")
                       .c_str());
    std::printf("%8s | %6s | %14s | %8s | %10s\n", "workers", "batch",
                "events/sec", "speedup", "violations");
    for (std::size_t workers = 1; workers <= kMaxWorkers; workers *= 2) {
      for (const std::size_t batch : {64u, 256u, 1024u}) {
        if (batch != 256 && workers != 4) continue;  // batch sweep at 4 only
        const std::size_t violations =
            RunParallelOnce(props, events, workers, batch, &weights);
        if (violations != serial_violations) {
          std::printf(
              "SEMANTICS MISMATCH at workers=%zu batch=%zu: parallel=%zu "
              "serial=%zu\n",
              workers, batch, violations, serial_violations);
          return 1;
        }
        const double s = BestSeconds(
            [&] { RunParallelOnce(props, events, workers, batch, &weights); });
        const double eps = static_cast<double>(kEvents) / s;
        std::printf("%8zu | %6zu | %14.0f | %7.2fx | %10zu\n", workers, batch,
                    eps, eps / serial_eps, violations);
        json.AddRow()
            .Str("mode", "parallel")
            .Num("properties", static_cast<double>(props.size()))
            .Num("workers", static_cast<double>(workers))
            .Num("batch", static_cast<double>(batch))
            .Num("events_per_sec", eps)
            .Num("speedup", eps / serial_eps)
            .Num("violations", static_cast<double>(violations));
      }
    }

    // Uniform (round-robin-equivalent) sharding vs calibrated, 4 workers.
    if (props.size() > 4) {
      const std::size_t workers = std::min<std::size_t>(4, kMaxWorkers);
      const double uniform_s = BestSeconds(
          [&] { RunParallelOnce(props, events, workers, 256, nullptr); });
      const double uniform_eps = static_cast<double>(kEvents) / uniform_s;
      std::printf(
          "  uniform shards @ %zu workers: %.0f events/sec (%.2fx serial; "
          "calibration re-balances by measured candidate_checks)\n",
          workers, uniform_eps, uniform_eps / serial_eps);
      json.AddRow()
          .Str("mode", "parallel_uniform")
          .Num("properties", static_cast<double>(props.size()))
          .Num("workers", static_cast<double>(workers))
          .Num("batch", 256)
          .Num("events_per_sec", uniform_eps)
          .Num("speedup", uniform_eps / serial_eps)
          .Num("violations", static_cast<double>(serial_violations));
    }
  }

  // ---- single hot property: instance sharding vs serial -----------------
  // One keyed property, >=100k concurrent instances (full mode). Property
  // sharding pins it to a single worker, so its speedup is identically 1x;
  // only ShardMode::kInstance can spread the population.
  {
    const std::size_t hot_events =
        EnvSize("SWMON_BENCH_PARALLEL_HOT_EVENTS", kTiny ? 8000 : 160000);
    // ~80% of the stream creates a mostly-unique pair inside one long
    // window, so the live population approaches 0.8 * events.
    const std::uint64_t keys = kTiny ? 128 : 1024;
    const std::vector<Property> hot = {HotPairProperty()};
    std::string why;
    if (!BuildShardPlan(hot[0], MonitorConfig{}, &why).has_value()) {
      std::printf("HOT PROPERTY NOT SHARD-ELIGIBLE: %s\n", why.c_str());
      return 1;
    }
    const auto hot_stream = HotPairStream(hot_events, keys, 11);

    std::size_t peak_live = 0;
    {
      MonitorSet probe;
      probe.Add(hot[0]);
      for (const DataplaneEvent& ev : hot_stream) probe.OnDataplaneEvent(ev);
      peak_live = static_cast<std::size_t>(
          probe.TelemetrySnapshot().gauge("monitor.engine.hot-pairs.peak_live"));
    }
    const std::size_t hot_serial_violations = RunSerialOnce(hot, hot_stream);
    const double hot_serial_s =
        BestSeconds([&] { RunSerialOnce(hot, hot_stream); });
    const double hot_serial_eps =
        static_cast<double>(hot_events) / hot_serial_s;
    bench::Section("single hot property (instance sharding)");
    std::printf(
        "  serial: %.0f events/sec | peak %zu concurrent instances | %zu "
        "violations\n",
        hot_serial_eps, peak_live, hot_serial_violations);
    json.AddRow()
        .Str("mode", "hot_serial")
        .Num("properties", 1)
        .Num("workers", 0)
        .Num("batch", 0)
        .Num("events_per_sec", hot_serial_eps)
        .Num("speedup", 1.0)
        .Num("peak_instances", static_cast<double>(peak_live))
        .Num("violations", static_cast<double>(hot_serial_violations));

    std::printf("%8s | %14s | %8s | %10s\n", "workers", "events/sec",
                "speedup", "violations");
    for (std::size_t workers = 1; workers <= kMaxWorkers; workers *= 2) {
      const std::size_t violations = RunParallelOnce(
          hot, hot_stream, workers, 256, nullptr, ShardMode::kInstance);
      if (violations != hot_serial_violations) {
        std::printf(
            "SEMANTICS MISMATCH (hot, instance-sharded) at workers=%zu: "
            "parallel=%zu serial=%zu\n",
            workers, violations, hot_serial_violations);
        return 1;
      }
      const double s = BestSeconds([&] {
        RunParallelOnce(hot, hot_stream, workers, 256, nullptr,
                        ShardMode::kInstance);
      });
      const double eps = static_cast<double>(hot_events) / s;
      std::printf("%8zu | %14.0f | %7.2fx | %10zu\n", workers, eps,
                  eps / hot_serial_eps, violations);
      json.AddRow()
          .Str("mode", "hot_instance")
          .Num("properties", 1)
          .Num("workers", static_cast<double>(workers))
          .Num("batch", 256)
          .Num("events_per_sec", eps)
          .Num("speedup", eps / hot_serial_eps)
          .Num("peak_instances", static_cast<double>(peak_live))
          .Num("violations", static_cast<double>(violations));
    }
  }

  std::printf(
      "\nShape check: single-worker throughput tracks serial (batching "
      "overhead only); with more cores than one, events/sec scales toward "
      "the worker count — for the 13-property sweep until the heaviest "
      "engine's shard dominates, and for the hot-property sweep without "
      "that cap (instance sharding splits the one hot engine itself). "
      "Speedup is bounded by hardware threads — see the first line "
      "above.\n");
  json.Flush();

  // CI gate: batching must not cost more than 1.3x serial at 1 worker (the
  // pure-overhead configuration — same work, plus slab/ring traffic).
  // Enforced in TINY (smoke) mode, where CI runs it; always reported.
  // Interleaved serial/1-worker pairs, gated on the median ratio. The
  // parallel side pins the producer to CPU 1 and the worker to CPU 0
  // (pin_threads), so the slab/ring handoff crosses cores on every pair;
  // the serial side runs on CPU 0, where the worker runs the same engines.
  // Two vCPUs of a shared host can run identical code up to ~1.7x apart
  // for seconds at a time, so timing serial on any other CPU than the
  // worker's gates on that difference instead of the handoff. Unpinned,
  // where the scheduler puts the worker decides the ratio outright.
  // Measured last because the main thread's pin stays.
  bool pinned = true;
  const std::vector<Property> gate_props = Table1Properties(13);
  const auto gate_weights = CalibrateShardWeights(gate_props, sample);
  const bench::PairedTiming gate = bench::PairedAB(
      kGatePairs,
      [&] {
        pinned = PinCurrentThreadToCpu(0) && pinned;
        return bench::Seconds([&] { RunSerialOnce(gate_props, events); });
      },
      [&] {
        pinned = PinCurrentThreadToCpu(1) && pinned;
        return bench::Seconds([&] {
          RunParallelOnce(gate_props, events, 1, 256, &gate_weights,
                          ShardMode::kProperty, /*pin_threads=*/true);
        });
      });
  std::printf("batching-overhead gate: 1-worker = %.2fx serial (median of %d "
              "pairs%s; quartiles %.2fx / %.2fx; budget 1.3x)\n",
              gate.ratio, kGatePairs,
              pinned ? ", producer CPU 1, worker and serial CPU 0"
                     : ", unpinned",
              gate.ratio_q1, gate.ratio_q3);
  if (kTiny && gate.ratio > 1.3) {
    std::printf(
        "BATCHING OVERHEAD REGRESSION: 1-worker parallel is %.2fx serial "
        "(budget 1.3x)\n",
        gate.ratio);
    return 1;
  }
  return 0;
}
