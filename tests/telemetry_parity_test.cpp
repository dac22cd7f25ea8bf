// Serial/parallel telemetry parity: a ParallelMonitorSet over the 13
// Table-1 catalog properties must produce a merged counter snapshot
// IDENTICAL to the serial MonitorSet's on the same stream, at every worker
// count and on both engines — same metric names, same values, compared with
// telemetry::Snapshot::operator==. This is the acceptance check for the
// shard-merge model: per-worker counters exist only as implementation
// detail and collapse losslessly at the quiesce point. Carries the `tsan`
// label so sanitized runs cover the merge path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "monitor/eviction.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "properties/catalog.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace swmon {
namespace {

constexpr EngineKind kBothEngines[] = {EngineKind::kCompiled,
                                       EngineKind::kInterpreted};

std::vector<Property> Table1Properties() {
  std::vector<Property> props;
  for (const CatalogEntry& e : BuildCatalog())
    if (e.in_table1) props.push_back(e.property);
  return props;
}

/// Random event soup with enough field collisions that stages chain,
/// timers arm, and instances evict — every counter family is exercised.
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

class SnapshotParity
    : public ::testing::TestWithParam<std::tuple<std::size_t, EngineKind>> {};

TEST_P(SnapshotParity, MergedSnapshotIdenticalToSerial) {
  const auto [workers, kind] = GetParam();
  MonitorConfig mcfg;
  mcfg.engine = kind;
  const std::vector<Property> props = Table1Properties();
  ASSERT_EQ(props.size(), 13u);
  const auto events = EventSoup(/*seed=*/2026, /*count=*/2000);
  const SimTime end = events.back().time + Duration::Seconds(300);

  MonitorSet serial;
  for (const Property& p : props) serial.Add(p, mcfg);
  for (const DataplaneEvent& ev : events) serial.OnDataplaneEvent(ev);
  serial.AdvanceTime(end);
  const telemetry::Snapshot want = serial.TelemetrySnapshot();

  ParallelConfig cfg;
  cfg.workers = workers;
  cfg.batch_capacity = 64;
  ParallelMonitorSet parallel(cfg);
  for (const Property& p : props) parallel.Add(p, mcfg);
  parallel.Start();
  for (const DataplaneEvent& ev : events) parallel.OnDataplaneEvent(ev);
  parallel.AdvanceTime(end);
  parallel.Stop();
  const telemetry::Snapshot full = parallel.TelemetrySnapshot();

  // The parallel runtime also publishes monitor.parallel.* metrics (slab
  // pool, ring depths, per-replica gauges) that a serial set cannot have;
  // parity covers every shared name.
  telemetry::Snapshot got;
  for (const auto& [name, sample] : full.samples()) {
    if (name.rfind("monitor.parallel.", 0) == 0) continue;
    if (sample.kind == telemetry::Sample::Kind::kCounter)
      got.SetCounter(name, sample.counter);
    else if (sample.kind == telemetry::Sample::Kind::kGauge)
      got.SetGauge(name, sample.gauge);
    else
      got.SetHistogram(name, sample.histogram);
  }

  // Same names (13 engines x counter family + the set-level counters)...
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [name, sample] : want.samples()) {
    ASSERT_TRUE(got.Has(name)) << "parallel snapshot missing " << name;
    EXPECT_TRUE(sample == got.samples().at(name))
        << "workers=" << workers << " diverges at " << name;
  }
  // ...and bit-identical values.
  EXPECT_TRUE(want == got) << "workers=" << workers;

  // The wildcard view agrees too (summed across all 13 engines).
  EXPECT_EQ(want.counter("monitor.engine.*.violations"),
            got.counter("monitor.engine.*.violations"));
  EXPECT_GT(got.counter("monitor.engine.*.events"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Workers, SnapshotParity,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::ValuesIn(kBothEngines)));

TEST(SnapshotParityTest, EvictionCountersAndStateBytesGaugeMatchSerial) {
  // Eviction-enabled properties are ineligible for instance sharding, so a
  // parallel set property-shards them — but the merged snapshot must still
  // carry the exact evictions.{policy,reason} counters and the live
  // state_bytes gauge the serial set reports, at every worker count.
  const std::vector<Property> props = Table1Properties();
  const auto events = EventSoup(/*seed=*/4242, /*count=*/1500);
  const SimTime end = events.back().time + Duration::Seconds(300);

  for (const EngineKind kind : kBothEngines) {
    SCOPED_TRACE(EngineKindName(kind));
    MonitorConfig mc;
    mc.engine = kind;
    mc.eviction =
        EvictionConfig{}.WithPolicy(EvictionPolicy::kLru).WithMaxInstances(4);

    MonitorSet serial;
    for (const Property& p : props) serial.Add(p, mc);
    for (const DataplaneEvent& ev : events) serial.OnDataplaneEvent(ev);
    serial.AdvanceTime(end);
    const telemetry::Snapshot want = serial.TelemetrySnapshot();

    // The soup must actually evict, and the new families must be published.
    ASSERT_GT(want.counter("monitor.engine.*.instances_evicted"), 0u);
    EXPECT_EQ(want.counter("monitor.engine.*.evictions.policy.lru"),
              want.counter("monitor.engine.*.instances_evicted"));
    for (const Property& p : props)
      EXPECT_TRUE(want.Has("monitor.engine." + p.name + ".state_bytes"))
          << p.name;

    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      ParallelConfig cfg;
      cfg.workers = workers;
      cfg.batch_capacity = 64;
      ParallelMonitorSet parallel(cfg);
      for (const Property& p : props) parallel.Add(p, mc);
      parallel.Start();
      for (const DataplaneEvent& ev : events) parallel.OnDataplaneEvent(ev);
      parallel.AdvanceTime(end);
      parallel.Stop();
      const telemetry::Snapshot got = parallel.TelemetrySnapshot();

      for (const auto& [name, sample] : want.samples()) {
        ASSERT_TRUE(got.Has(name))
            << "workers=" << workers << " missing " << name;
        EXPECT_TRUE(sample == got.samples().at(name))
            << "workers=" << workers << " diverges at " << name;
      }
      EXPECT_EQ(want.counter("monitor.engine.*.evictions.reason.capacity"),
                got.counter("monitor.engine.*.evictions.reason.capacity"))
          << "workers=" << workers;
    }
  }
}

TEST(SnapshotParityTest, RegistryCollectorsMatchDirectSnapshots) {
  // Attaching either set to a MetricsRegistry must yield the same counter
  // families through TakeSnapshot() as querying the set directly (modulo
  // the latency histogram, which only the registry path arms — wall-clock
  // timings are not comparable across runs and are excluded here).
  const std::vector<Property> props = Table1Properties();
  const auto events = EventSoup(/*seed=*/7, /*count=*/500);

  telemetry::MetricsRegistry registry;
  MonitorSet set;
  set.AttachTelemetry(&registry);
  for (const Property& p : props) set.Add(p);
  for (const DataplaneEvent& ev : events) set.OnDataplaneEvent(ev);

  const telemetry::Snapshot direct = set.TelemetrySnapshot();
  const telemetry::Snapshot via_registry = registry.TakeSnapshot();
  for (const auto& [name, sample] : direct.samples()) {
    ASSERT_TRUE(via_registry.Has(name)) << name;
    EXPECT_TRUE(sample == via_registry.samples().at(name)) << name;
  }
  // The registry additionally carries the armed latency histogram.
  ASSERT_NE(via_registry.histogram("monitor.set.dispatch_latency_ns"),
            nullptr);
  set.AttachTelemetry(nullptr);
  EXPECT_FALSE(registry.TakeSnapshot().Has("monitor.set.events_dispatched"));
}

}  // namespace
}  // namespace swmon
