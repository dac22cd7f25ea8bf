// Telemetry hot-path overhead: instrumented vs compile-time no-op dispatch.
//
// The telemetry design promise (DESIGN.md §5g) is that instrumenting the
// monitor hot path costs < 3%: engines keep plain single-threaded counter
// shards (merged only at snapshot time), and the only per-event addition is
// a 1-in-64 sampled pair of steady_clock reads feeding the dispatch-latency
// histogram. Both hot paths exist in every binary as the two
// specializations of MonitorSet::DeliverEvent<bool> — the SWMON_TELEMETRY
// macro merely selects which one OnDataplaneEvent calls — so this bench
// times them as interleaved A/B pairs in one process and FAILS (exit 1) if
// the median per-pair ratio says the instrumented path is >= 3% slower.
// Emits BENCH_telemetry_overhead.json.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "monitor/monitor_set.hpp"
#include "properties/catalog.hpp"
#include "telemetry/metrics.hpp"

namespace swmon {
namespace {

std::vector<Property> Table1Properties() {
  std::vector<Property> props;
  for (const CatalogEntry& e : BuildCatalog())
    if (e.in_table1) props.push_back(e.property);
  return props;
}

std::vector<DataplaneEvent> EventSoup(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < count; ++i) {
    DataplaneEvent ev;
    t = t + Duration::Millis(1 + static_cast<std::int64_t>(rng.NextBelow(40)));
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

/// Wall time of one full replay through a fresh set. `kInstrumented`
/// selects the DeliverEvent specialization; when true a registry is
/// attached so the latency histogram is armed (the worst case: sampled
/// clock reads actually happen).
template <bool kInstrumented>
double OneRepSeconds(const std::vector<Property>& props,
                     const std::vector<DataplaneEvent>& events) {
  telemetry::MetricsRegistry registry;
  MonitorSet set;
  if (kInstrumented) set.AttachTelemetry(&registry);
  for (const Property& p : props) set.Add(p);
  const auto t0 = std::chrono::steady_clock::now();
  for (const DataplaneEvent& ev : events)
    set.template DeliverEvent<kInstrumented>(ev);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace
}  // namespace swmon

int main() {
  using namespace swmon;
  bench::Header("bench_telemetry_overhead",
                "telemetry acceptance gate (DESIGN.md §5g)",
                "snapshot-merged telemetry must cost the monitor hot path "
                "< 3% vs the compile-time no-op dispatch");

  // One CPU for the whole run: a migration would land cold caches on
  // whichever side happens to be running.
  const bool pinned = PinCurrentThreadToCpu(0);
  const std::vector<Property> props = Table1Properties();
  const auto events = EventSoup(/*seed=*/99, /*count=*/60000);
  const int kPairs = 161;

  OneRepSeconds<false>(props, events);  // warm both paths
  OneRepSeconds<true>(props, events);
  const bench::PairedTiming t = bench::PairedAB(
      kPairs, [&] { return OneRepSeconds<false>(props, events); },
      [&] { return OneRepSeconds<true>(props, events); });

  const double n = static_cast<double>(events.size());
  const double plain_ns = t.a_s / n * 1e9;
  const double instr_ns = t.b_s / n * 1e9;
  const double overhead_pct = (t.ratio - 1.0) * 100.0;

  bench::Section("instrumented vs no-op dispatch (13 Table-1 properties)");
  std::printf("%16s | %12s\n", "path", "ns/event");
  std::printf("%16s | %12.1f\n", "no-op", plain_ns);
  std::printf("%16s | %12.1f\n", "instrumented", instr_ns);
  std::printf("\noverhead: %+.2f%% (median of %d pairs%s; quartiles %+.2f%% "
              "/ %+.2f%%; budget < 3%%)\n",
              overhead_pct, kPairs, pinned ? ", one CPU" : ", unpinned",
              (t.ratio_q1 - 1.0) * 100.0, (t.ratio_q3 - 1.0) * 100.0);

  bench::JsonReporter json("telemetry_overhead");
  json.AddRow()
      .Str("path", "noop")
      .Num("ns_per_event", plain_ns)
      .Num("events", n)
      .Num("properties", static_cast<double>(props.size()));
  json.AddRow()
      .Str("path", "instrumented")
      .Num("ns_per_event", instr_ns)
      .Num("events", n)
      .Num("properties", static_cast<double>(props.size()));
  json.AddRow()
      .Str("path", "summary")
      .Num("overhead_pct", overhead_pct)
      .Num("pairs", kPairs);
  json.Flush();

  if (overhead_pct >= 3.0) {
    std::printf("FAIL: telemetry overhead %.2f%% >= 3%% budget\n",
                overhead_pct);
    return 1;
  }
  std::printf("PASS: telemetry overhead within budget\n");
  return 0;
}
