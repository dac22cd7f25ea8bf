// Dispatch — the pre-filtered event-dispatch layer (DESIGN.md "Dispatch"):
// per-event monitor cost with N catalog properties attached, interest-
// signature filtering (MonitorSet) versus the all-engines broadcast
// baseline. Sec 3.3's discipline is that per-packet monitor cost must not
// scale with what *cannot* match; the filter delivers a single-type event
// stream only to the engines whose property has a pattern for that type,
// the rest merely observe the timestamp.
//
// Emits BENCH_dispatch.json via bench_util's JsonReporter (the `bench`
// CMake target points SWMON_BENCH_JSON_DIR at the build tree).
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "monitor/features.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/property_builder.hpp"
#include "properties/catalog.hpp"
#include "telemetry/snapshot.hpp"

namespace swmon {
namespace {

constexpr std::size_t kEvents = 20000;
constexpr int kReps = 5;
// Interleaved direct/dispatched pairs behind the all-types guard.
constexpr int kGatePairs = 101;

std::vector<DataplaneEvent> SingleTypeStream(DataplaneEventType type,
                                             std::size_t count,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    ev.type = type;
    ev.time = SimTime::Zero() + Duration::Micros(static_cast<std::int64_t>(i));
    switch (type) {
      case DataplaneEventType::kArrival:
        ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
        ev.fields.Set(FieldId::kPacketId, i + 1);
        ev.fields.Set(FieldId::kIpSrc, 1000 + rng.NextBelow(64));
        ev.fields.Set(FieldId::kIpDst, 2000 + rng.NextBelow(64));
        ev.fields.Set(FieldId::kIpProto, 6);
        ev.fields.Set(FieldId::kL4SrcPort, 30000 + rng.NextBelow(512));
        ev.fields.Set(FieldId::kL4DstPort, rng.NextBool(0.5) ? 80 : 443);
        break;
      case DataplaneEventType::kEgress:
        ev.fields.Set(FieldId::kPacketId, i + 1);
        ev.fields.Set(FieldId::kIpSrc, 2000 + rng.NextBelow(64));
        ev.fields.Set(FieldId::kIpDst, 1000 + rng.NextBelow(64));
        ev.fields.Set(FieldId::kOutPort, 1 + rng.NextBelow(4));
        ev.fields.Set(FieldId::kEgressAction,
                      static_cast<std::uint64_t>(
                          rng.NextBool(0.1) ? EgressActionValue::kDrop
                                            : EgressActionValue::kForward));
        break;
      case DataplaneEventType::kLinkStatus:
        ev.fields.Set(FieldId::kLinkId, 1 + rng.NextBelow(4));
        ev.fields.Set(FieldId::kLinkUp, rng.NextBool(0.5) ? 1 : 0);
        break;
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

struct RunResult {
  double ns_per_event = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t filtered = 0;
  std::size_t violations = 0;
};

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

RunResult RunFiltered(const std::vector<Property>& props,
                      const std::vector<DataplaneEvent>& events) {
  RunResult out;
  out.ns_per_event = BestNsPerEvent(
      [&] {
        MonitorSet set;
        for (const Property& p : props) set.Add(p);
        for (const DataplaneEvent& ev : events) set.OnDataplaneEvent(ev);
      },
      events.size());
  // One more instrumented pass for the counters.
  MonitorSet set;
  for (const Property& p : props) set.Add(p);
  for (const DataplaneEvent& ev : events) set.OnDataplaneEvent(ev);
  const telemetry::Snapshot snap = set.TelemetrySnapshot();
  out.dispatched = snap.counter("monitor.set.events_dispatched");
  out.filtered = snap.counter("monitor.set.events_filtered");
  out.violations = set.TotalViolations();
  return out;
}

RunResult RunBroadcast(const std::vector<Property>& props,
                       const std::vector<DataplaneEvent>& events) {
  RunResult out;
  // Same factory and config as MonitorSet::Add, so the ratio measures
  // filtering, not an engine difference.
  const auto make = [&] {
    std::vector<std::unique_ptr<PropertyMonitor>> engines;
    for (const Property& p : props)
      engines.push_back(CreatePropertyMonitor(p, MonitorConfig{}));
    return engines;
  };
  out.ns_per_event = BestNsPerEvent(
      [&] {
        auto engines = make();
        for (const DataplaneEvent& ev : events)
          for (auto& e : engines) e->ProcessEvent(ev);
      },
      events.size());
  auto engines = make();
  for (const DataplaneEvent& ev : events)
    for (auto& e : engines) e->ProcessEvent(ev);
  out.dispatched = events.size() * engines.size();
  for (auto& e : engines) out.violations += e->violations().size();
  return out;
}

/// A property interested in every event type whose patterns never match:
/// what it measures is pure delivery overhead — the dispatch layer's cost
/// on top of a direct ProcessEvent loop.
Property AllTypesProbe() {
  PropertyBuilder b("all-types-probe", "never-matching any-type patterns");
  b.AddStage("first").Match(
      PatternBuilder::AnyEvent().Eq(FieldId::kInPort, 9999).Build());
  b.AddStage("second").Match(
      PatternBuilder::AnyEvent().Eq(FieldId::kInPort, 9998).Build());
  return std::move(b).Build();
}

std::vector<DataplaneEvent> MixedTypeStream(std::size_t count,
                                            std::uint64_t seed) {
  std::vector<DataplaneEvent> events;
  events.reserve(count);
  const DataplaneEventType kinds[] = {DataplaneEventType::kArrival,
                                      DataplaneEventType::kEgress,
                                      DataplaneEventType::kLinkStatus};
  for (std::size_t i = 0; i < count; ++i) {
    auto batch = SingleTypeStream(kinds[i % 3], 1, seed + i);
    batch[0].time = SimTime::Zero() + Duration::Micros(
                                          static_cast<std::int64_t>(i));
    events.push_back(std::move(batch[0]));
  }
  return events;
}

}  // namespace
}  // namespace swmon

int main() {
  using namespace swmon;
  bench::Header(
      "bench_dispatch", "Sec 3.3 (constant per-packet monitor cost)",
      "with N properties attached, an event should only cost the engines "
      "whose property can react to its type, not all N");

  bench::JsonReporter json("dispatch");

  const struct {
    DataplaneEventType type;
    const char* name;
  } streams[] = {
      {DataplaneEventType::kArrival, "arrival"},
      {DataplaneEventType::kEgress, "egress"},
      {DataplaneEventType::kLinkStatus, "link_status"},
  };

  {
    bench::Section("interest signatures (Table 1 catalog)");
    for (const CatalogEntry& e : BuildCatalog()) {
      if (!e.in_table1) continue;
      std::printf("  %-6s %-28s %s\n", e.id, e.property.name.c_str(),
                  InterestSignatureString(InterestSignature(e.property))
                      .c_str());
    }
  }

  for (const std::size_t nprops : {1u, 4u, 13u}) {
    const std::vector<Property> props = Table1Properties(nprops);
    bench::Section(
        ("per-event cost, " + std::to_string(props.size()) + " properties")
            .c_str());
    std::printf("%12s | %14s | %14s | %7s | %10s | %10s\n", "stream",
                "filtered ns/ev", "broadcast ns/ev", "ratio", "dispatched",
                "filtered");
    for (const auto& s : streams) {
      const auto events = SingleTypeStream(s.type, kEvents, 42);
      const RunResult filt = RunFiltered(props, events);
      const RunResult bcast = RunBroadcast(props, events);
      if (filt.violations != bcast.violations) {
        std::printf("SEMANTICS MISMATCH on %s: filtered=%zu broadcast=%zu\n",
                    s.name, filt.violations, bcast.violations);
        return 1;
      }
      const double ratio = filt.ns_per_event > 0
                               ? bcast.ns_per_event / filt.ns_per_event
                               : 0;
      std::printf("%12s | %14.1f | %15.1f | %6.2fx | %10llu | %10llu\n",
                  s.name, filt.ns_per_event, bcast.ns_per_event, ratio,
                  static_cast<unsigned long long>(filt.dispatched),
                  static_cast<unsigned long long>(filt.filtered));
      json.AddRow()
          .Str("stream", s.name)
          .Num("properties", static_cast<double>(props.size()))
          .Num("filtered_ns_per_event", filt.ns_per_event)
          .Num("broadcast_ns_per_event", bcast.ns_per_event)
          .Num("speedup", ratio)
          .Num("events_dispatched", static_cast<double>(filt.dispatched))
          .Num("events_filtered", static_cast<double>(filt.filtered))
          .Num("violations", static_cast<double>(filt.violations));
    }
  }

  std::printf(
      "\nShape check: single-type streams reach only the interested subset "
      "(link_status most dramatically — no Table-1 property listens, so "
      "every engine takes the constant clock-only path), keeping filtered "
      "ns/event well below the broadcast baseline as properties are "
      "added.\n");

  // Regression guard: a property subscribed to every event type gains
  // nothing from interest filtering, so dispatching to it must not cost
  // more than calling the engine directly (the all-interested fast path
  // skips the filtered-walk bookkeeping entirely). 1.5x absorbs timer
  // noise; the regression this guards was ~2x and up. The runs are
  // interleaved pairs gated on the median per-pair ratio, and only event
  // delivery is timed: building the engine or the set is not a per-event
  // cost.
  {
    bench::Section("all-types property: dispatch overhead vs direct engine");
    // One CPU, as in bench_telemetry_overhead: a migration would land cold
    // caches on one side of a pair. Last section, so the pin can stay.
    const bool pinned = PinCurrentThreadToCpu(0);
    const Property probe = AllTypesProbe();
    const auto events = MixedTypeStream(kEvents, 7);
    // Both sides build the engine through the factory from one config, so
    // the ratio is dispatch overhead, not an engine difference.
    const MonitorConfig config;
    const bench::PairedTiming t = bench::PairedAB(
        kGatePairs,
        [&] {
          const auto engine = CreatePropertyMonitor(probe, config);
          return bench::Seconds([&] {
            for (const DataplaneEvent& ev : events) engine->ProcessEvent(ev);
          });
        },
        [&] {
          MonitorSet set;
          set.Add(probe, config);
          return bench::Seconds([&] {
            for (const DataplaneEvent& ev : events) set.OnDataplaneEvent(ev);
          });
        });
    const double n = static_cast<double>(events.size());
    const double direct_ns = t.a_s / n * 1e9;
    const double dispatched_ns = t.b_s / n * 1e9;
    const double overhead = t.ratio;
    std::printf("  direct %.1f ns/ev | dispatched %.1f ns/ev | %.2fx (median "
                "of %d pairs%s; quartiles %.2fx / %.2fx)\n",
                direct_ns, dispatched_ns, overhead, kGatePairs,
                pinned ? ", one CPU" : ", unpinned", t.ratio_q1, t.ratio_q3);
    json.AddRow()
        .Str("stream", "all_types_guard")
        .Num("direct_ns_per_event", direct_ns)
        .Num("dispatched_ns_per_event", dispatched_ns)
        .Num("overhead", overhead);
    if (overhead > 1.5) {
      std::printf("DISPATCH OVERHEAD REGRESSION: %.2fx > 1.5x budget for an "
                  "all-types property\n",
                  overhead);
      json.Flush();
      return 1;
    }
  }
  json.Flush();
  return 0;
}
