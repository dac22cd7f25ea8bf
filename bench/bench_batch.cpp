// Batch-mode compiled execution vs the scalar compiled path (DESIGN.md
// §5k, EXPERIMENTS.md E14): per-event cost of MonitorSet delivery with the
// micro-batcher on (SetBatching) against per-event delivery, both running
// the compiled engine. The batch path buys two things the scalar loop
// cannot: run folding (a run of filtered events, or of provably inert
// events while a property holds no live instances, costs one counter bump
// and one clock advance) and engine-outer loop order that keeps one
// engine's bytecode and tables hot across the run.
//
// Batching is required to be observationally bit-identical to scalar
// delivery, so every swept configuration is also a differential check —
// any violation mismatch fails the bench (exit 1).
//
// Sweeps: stream x property count x batch window. Emits BENCH_batch.json
// via JsonReporter.
// The CI smoke step runs under SWMON_BENCH_TINY and enforces the gate:
// at the sweep's best window, batched 13-property delivery on the keyed
// stream must cost <= 0.9x scalar compiled — the median of interleaved
// scalar/batch pair ratios (bench::PairedAB), so one disturbed rep moves
// one ratio, not the verdict.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "monitor/monitor_set.hpp"
#include "properties/catalog.hpp"

namespace swmon {
namespace {

// Same L3-resident sizing rationale as bench_compiled: the comparison is
// per-event monitor compute, so the event walk must not be DRAM-bound.
// TINY keeps enough laps that the gate ratio is measured, not noise.
const bool kTiny = std::getenv("SWMON_BENCH_TINY") != nullptr;
const std::size_t kEvents = kTiny ? 2000 : 8000;
const int kLaps = kTiny ? 4 : 40;
const int kReps = kTiny ? 2 : 3;
const int kGatePairs = kTiny ? 15 : 31;

/// The fuzz-test event soup (bench_compiled's mixed stream): all three
/// types, fields sprinkled at random in a small value range so stages
/// chain, instances accumulate, and every property sees relevant events.
std::vector<DataplaneEvent> FuzzStream(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  events.reserve(count);
  SimTime t = SimTime::Zero();
  for (std::size_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    t = t + Duration::Millis(1 + static_cast<std::int64_t>(rng.NextBelow(50)));
    ev.time = t;
    const auto roll = rng.NextBelow(10);
    ev.type = roll < 4   ? DataplaneEventType::kArrival
              : roll < 8 ? DataplaneEventType::kEgress
                         : DataplaneEventType::kLinkStatus;
    for (std::size_t f = 0; f < kNumFieldIds; ++f) {
      if (rng.NextBool(0.35))
        ev.fields.Set(static_cast<FieldId>(f), rng.NextBelow(8));
    }
    events.push_back(std::move(ev));
  }
  return events;
}

/// The stream batch mode is built for: arrival events over a large flow
/// population. Flow-keyed properties accumulate instances over a large key
/// space, while properties keyed on other protocols hold none and fold
/// whole runs. (The fuzz soup above is the opposite regime: tiny key space,
/// every property live, cost dominated by pass execution batching cannot
/// reduce.)
std::vector<DataplaneEvent> KeyedArrivalStream(std::uint64_t seed,
                                               std::size_t count) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    ev.type = DataplaneEventType::kArrival;
    ev.time = SimTime::Zero() + Duration::Micros(static_cast<std::int64_t>(i));
    ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
    ev.fields.Set(FieldId::kPacketId, i + 1);
    ev.fields.Set(FieldId::kIpSrc, 1000 + rng.NextBelow(256));
    ev.fields.Set(FieldId::kIpDst, 2000 + rng.NextBelow(256));
    ev.fields.Set(FieldId::kIpProto, 6);
    ev.fields.Set(FieldId::kL4SrcPort, 30000 + rng.NextBelow(512));
    ev.fields.Set(FieldId::kL4DstPort, rng.NextBool(0.5) ? 80 : 443);
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

double BestNsPerEvent(const std::function<void()>& run, std::size_t events) {
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(events);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

/// One measured run: MonitorSet delivery of the stream, window 0 = scalar
/// per-event path. Construction (and bytecode compilation) sits inside the
/// timed region like bench_compiled, amortised over the replay laps.
void RunSet(const std::vector<Property>& props,
            const std::vector<DataplaneEvent>& events, std::size_t window) {
  MonitorConfig cfg;
  cfg.engine = EngineKind::kCompiled;
  MonitorSet set;
  if (window != 0) set.SetBatching(window);
  for (const Property& p : props) set.Add(p, cfg);
  for (int lap = 0; lap < kLaps; ++lap) {
    // Span delivery: batched windows execute straight out of the replay
    // buffer (no per-event copy); window 0 degrades to the same per-event
    // loop as OnDataplaneEvent.
    set.OnDataplaneEvents(events.data(), events.size());
    set.FlushEvents();
  }
}

/// Best-of-kReps ns/event of RunSet (the sweep table).
double TimeSet(const std::vector<Property>& props,
               const std::vector<DataplaneEvent>& events, std::size_t window) {
  return BestNsPerEvent([&] { RunSet(props, events, window); },
                        events.size() * static_cast<std::size_t>(kLaps));
}

/// Untimed single pass for the differential check.
std::vector<Violation> RunOnce(const std::vector<Property>& props,
                               const std::vector<DataplaneEvent>& events,
                               std::size_t window) {
  MonitorConfig cfg;
  cfg.engine = EngineKind::kCompiled;
  MonitorSet set;
  if (window != 0) set.SetBatching(window);
  for (const Property& p : props) set.Add(p, cfg);
  set.OnDataplaneEvents(events.data(), events.size());
  set.AdvanceTime(events.back().time + Duration::Seconds(300));
  return set.AllViolations();
}

bool Identical(const std::vector<Violation>& a,
               const std::vector<Violation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].property != b[i].property || a[i].time != b[i].time ||
        a[i].instance_id != b[i].instance_id ||
        a[i].trigger_stage != b[i].trigger_stage ||
        a[i].bindings != b[i].bindings)
      return false;
  }
  return true;
}

}  // namespace
}  // namespace swmon

int main() {
  using namespace swmon;
  bench::Header(
      "bench_batch", "DESIGN.md §5k (batch-mode execution)",
      "run folding + engine-outer batch loops cut per-event cost vs "
      "scalar compiled delivery, with bit-identical violation streams at "
      "every swept configuration");

  bench::JsonReporter json("batch");
  json.SetMeta("compiled");
  // 64 is the window README recommends for `swmond --batch`.
  const std::vector<std::size_t> windows = {8, 32, 64, 256};
  const struct {
    const char* name;
    std::vector<DataplaneEvent> events;
  } streams[] = {
      {"keyed_arrival", KeyedArrivalStream(42, kEvents)},
      {"fuzz_soup", FuzzStream(99, kEvents)},
  };
  bool all_identical = true;
  // The gate (and the headline number) is the probe-bound keyed stream at
  // 13 properties — the configuration batch mode exists for; the sweep
  // picks its window.
  double gate_best_batch_ns = 0;
  std::size_t gate_best_window = 0;

  for (const auto& s : streams) {
    for (const std::size_t nprops : {1u, 4u, 13u}) {
      const std::vector<Property> props = Table1Properties(nprops);
      const std::vector<Violation> reference =
          RunOnce(props, s.events, /*window=*/0);
      const double scalar_ns = TimeSet(props, s.events, 0);
      bench::Section((std::string(s.name) + ", batch window sweep, " +
                      std::to_string(props.size()) + " properties")
                         .c_str());
      std::printf("%8s | %14s | %12s | %8s | %10s\n", "window",
                  "scalar ns/ev", "batch ns/ev", "speedup", "violations");
      for (const std::size_t window : windows) {
        const std::vector<Violation> batched =
            RunOnce(props, s.events, window);
        if (!Identical(reference, batched)) {
          std::printf("SEMANTICS MISMATCH: %s window=%zu props=%zu: "
                      "scalar=%zu batched=%zu violations\n",
                      s.name, window, props.size(), reference.size(),
                      batched.size());
          all_identical = false;
          continue;
        }
        const double batch_ns = TimeSet(props, s.events, window);
        const double speedup = batch_ns > 0 ? scalar_ns / batch_ns : 0;
        std::printf("%8zu | %14.1f | %12.1f | %7.2fx | %10zu\n", window,
                    scalar_ns, batch_ns, speedup, batched.size());
        json.AddRow()
            .Str("stream", s.name)
            .Num("properties", static_cast<double>(props.size()))
            .Num("window", static_cast<double>(window))
            .Num("scalar_ns_per_event", scalar_ns)
            .Num("batch_ns_per_event", batch_ns)
            .Num("speedup", speedup)
            .Num("violations", static_cast<double>(batched.size()));
        if (nprops == 13 && std::string(s.name) == "keyed_arrival") {
          if (gate_best_window == 0 || batch_ns < gate_best_batch_ns) {
            gate_best_batch_ns = batch_ns;
            gate_best_window = window;
          }
        }
      }
    }
  }

  if (!all_identical) {
    json.Flush();
    return 1;  // differential failure is a bench failure
  }

  // The gate: scalar vs batch at the sweep's best window, timed as
  // interleaved pairs on one CPU and judged on the median pair ratio.
  const bool pinned = PinCurrentThreadToCpu(0);
  const std::vector<Property> gate_props = Table1Properties(13);
  const std::vector<DataplaneEvent>& gate_events = streams[0].events;
  const bench::PairedTiming t = bench::PairedAB(
      kGatePairs,
      [&] {
        return bench::Seconds([&] { RunSet(gate_props, gate_events, 0); });
      },
      [&] {
        return bench::Seconds(
            [&] { RunSet(gate_props, gate_events, gate_best_window); });
      });
  const double laps_events =
      static_cast<double>(gate_events.size()) * static_cast<double>(kLaps);
  const double ratio = t.ratio;  // batch / scalar
  std::printf("\nkeyed_arrival 13-property gate at window %zu: scalar %.1f "
              "ns/ev, batch %.1f ns/ev, batch/scalar %.2fx (%.2fx speedup; "
              "median of %d pairs%s; quartiles %.2fx / %.2fx; gate: batch <= "
              "0.9x scalar; target: >= 1.5x speedup)\n",
              gate_best_window, t.a_s / laps_events * 1e9,
              t.b_s / laps_events * 1e9, ratio, 1.0 / ratio, kGatePairs,
              pinned ? ", one CPU" : ", unpinned", t.ratio_q1, t.ratio_q3);
  json.AddRow()
      .Str("stream", "summary")
      .Num("best_batch_speedup_13p", 1.0 / ratio)
      .Num("best_window", static_cast<double>(gate_best_window))
      .Num("batch_over_scalar", ratio)
      .Num("ratio_q1", t.ratio_q1)
      .Num("ratio_q3", t.ratio_q3)
      .Num("pairs", kGatePairs);
  json.Flush();

  if (ratio > 0.9) {
    std::printf("GATE FAILURE: batch/scalar %.2fx > 0.9x (median of %d "
                "pairs)\n",
                ratio, kGatePairs);
    return 1;
  }
  return 0;
}
