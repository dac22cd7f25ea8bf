// Instance sharding (ShardMode::kInstance) must be observationally
// identical to serial execution: one property split across N worker
// replicas by instance identity has to reassemble the exact serial
// violation stream (same order, same serial instance ids), the exact
// per-engine counters, and survive hot attach/detach — at every worker
// count and batch schedule, on both engines (the compiled default and the
// interpreter the factory falls back to). Replays the fuzz seed streams
// through the 13 Table-1 catalog properties (shard-eligible ones split,
// the rest fall back to property sharding in the same set) plus a
// dedicated single-hot-property sweep that actually spreads instances
// across replicas. Carries the `tsan` CTest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "monitor/property_builder.hpp"
#include "monitor/shard_plan.hpp"
#include "properties/catalog.hpp"
#include "telemetry/snapshot.hpp"

namespace swmon {
namespace {

/// The EngineFuzz event soup (fuzz_test.cpp): random types, random field
/// sprinkles in a small value range so stages actually chain and violate.
std::vector<DataplaneEvent> FuzzSeedStream(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < count; ++i) {
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

constexpr EngineKind kBothEngines[] = {EngineKind::kCompiled,
                                       EngineKind::kInterpreted};

/// Both sides of every parity check run `kind`.
MonitorConfig EngineConfig(EngineKind kind) {
  MonitorConfig cfg;
  cfg.engine = kind;
  return cfg;
}

std::vector<Property> Table1Properties() {
  std::vector<Property> props;
  for (const CatalogEntry& e : BuildCatalog())
    if (e.in_table1) props.push_back(e.property);
  return props;
}

/// A shard-eligible two-stage keyed property: arrival binds (A, B); a later
/// drop of the reversed pair violates. Both vars are stage-0 field
/// bindings that stage 1 pins with indexable equalities, so BuildShardPlan
/// accepts it and the producer can route on (src, dst).
Property KeyedPairProperty(const std::string& name) {
  PropertyBuilder b(name, "instance-shard test property");
  const VarId A = b.Var("A"), B = b.Var("B");
  b.AddStage("outbound")
      .Match(PatternBuilder::Arrival().Build())
      .Bind(A, FieldId::kIpSrc)
      .Bind(B, FieldId::kIpDst)
      .Window(Duration::Seconds(60))
      .RefreshOnRematch();
  b.AddStage("return dropped")
      .Match(PatternBuilder::Egress()
                 .EqVar(FieldId::kIpSrc, B)
                 .EqVar(FieldId::kIpDst, A)
                 .Dropped()
                 .Build());
  return std::move(b).Build();
}

/// Pair traffic for KeyedPairProperty: arrivals bind (src, dst) pairs from
/// a `keys`-sized space; drop egresses pick random pairs from the same
/// space, so with enough live instances the reversed-pair match actually
/// fires and the property violates (non-vacuous parity).
std::vector<DataplaneEvent> PairStream(std::uint64_t seed, int count,
                                       std::uint64_t keys) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < count; ++i) {
    t = t + Duration::Millis(1);
    DataplaneEvent ev;
    ev.time = t;
    ev.fields.Set(FieldId::kIpSrc, rng.NextBelow(keys));
    ev.fields.Set(FieldId::kIpDst, rng.NextBelow(keys));
    if (rng.NextBool(0.75)) {
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

void ExpectViolationEq(const Violation& a, const Violation& b,
                       const std::string& label) {
  EXPECT_EQ(a.property, b.property) << label;
  EXPECT_EQ(a.time, b.time) << label;
  EXPECT_EQ(a.instance_id, b.instance_id) << label;
  EXPECT_EQ(a.trigger_stage, b.trigger_stage) << label;
  EXPECT_EQ(a.bindings, b.bindings) << label;
  EXPECT_EQ(a.history.size(), b.history.size()) << label;
}

/// Snapshot parity for the sharded path. Excluded from the contract:
///   * monitor.parallel.* — runtime-only metrics a serial set cannot emit;
///   * monitor.compiled.* — the compiled engine's OpenMap probe telemetry
///     is a property of the map's physical layout, which instance sharding
///     genuinely changes (each replica hashes only its own instances), so
///     the replica sums cannot equal the serial engine's counts;
///   * *.timer_stale_pops — stale-entry discard timing is replica-local:
///     a replica's smaller heap reaches (or avoids) lazy pops and
///     compaction rebuilds at different points than the serial engine's
///     one big heap, so at any snapshot instant the sum of entries
///     discarded so far is a valid but not bit-identical accounting of
///     the same work. Everything semantic (events, matches, violations,
///     instance counts, peaks, expiries) must agree exactly.
void ExpectShardedSnapshotEq(const telemetry::Snapshot& a,
                             const telemetry::Snapshot& b,
                             const std::string& label) {
  const auto excluded = [](const std::string& name) {
    if (name.rfind("monitor.parallel.", 0) == 0) return true;
    if (name.rfind("monitor.compiled.", 0) == 0) return true;
    const std::string stale = ".timer_stale_pops";
    return name.size() >= stale.size() &&
           name.compare(name.size() - stale.size(), stale.size(), stale) == 0;
  };
  std::size_t b_shared = 0;
  for (const auto& [name, sample] : b.samples())
    if (!excluded(name)) ++b_shared;
  std::size_t a_shared = 0;
  for (const auto& [name, sample] : a.samples()) {
    if (excluded(name)) continue;
    ++a_shared;
    ASSERT_TRUE(b.Has(name)) << label << " missing " << name;
    EXPECT_TRUE(sample == b.samples().at(name)) << label << " at " << name;
  }
  EXPECT_EQ(a_shared, b_shared) << label;
}

/// Runs the serial reference and also records the serial merged order:
/// after each event (and the final AdvanceTime), new violations per engine
/// in attach order — what MergedViolations() promises.
struct SerialReference {
  MonitorSet set;
  std::vector<Violation> merged;
};

std::unique_ptr<SerialReference> RunSerial(
    const std::vector<Property>& props,
    const std::vector<DataplaneEvent>& events, SimTime final_advance,
    const MonitorConfig& mcfg) {
  auto ref = std::make_unique<SerialReference>();
  for (const Property& p : props) ref->set.Add(p, mcfg);
  std::vector<std::size_t> seen(props.size(), 0);
  const auto collect = [&] {
    for (std::size_t i = 0; i < props.size(); ++i) {
      const auto& v = ref->set.engine(i).violations();
      for (; seen[i] < v.size(); ++seen[i]) ref->merged.push_back(v[seen[i]]);
    }
  };
  for (const DataplaneEvent& ev : events) {
    ref->set.OnDataplaneEvent(ev);
    collect();
  }
  ref->set.AdvanceTime(final_advance);
  collect();
  return ref;
}

class InstanceShardParity
    : public ::testing::TestWithParam<std::tuple<std::size_t, EngineKind>> {};

TEST_P(InstanceShardParity, Table1StreamsMatchSerialExactly) {
  const auto [workers, kind] = GetParam();
  const MonitorConfig mcfg = EngineConfig(kind);
  const std::vector<Property> props = Table1Properties();
  ASSERT_EQ(props.size(), 13u);

  for (const std::uint64_t seed : {99ull, 123ull}) {
    const auto events = FuzzSeedStream(seed, 1200);
    const SimTime end = events.back().time + Duration::Seconds(300);
    const auto serial = RunSerial(props, events, end, mcfg);

    ParallelConfig cfg;
    cfg.workers = workers;
    cfg.batch_capacity = 64;
    cfg.shard_mode = ShardMode::kInstance;
    ParallelMonitorSet parallel(cfg);
    for (const Property& p : props) parallel.Add(p, mcfg);
    parallel.Start();

    // Non-vacuous: the catalog must contain shard-eligible properties and
    // the set must actually have split them.
    std::size_t sharded = 0;
    for (std::size_t i = 0; i < parallel.size(); ++i)
      if (parallel.instance_sharded(i)) ++sharded;
    ASSERT_GT(sharded, 0u) << "no Table-1 property instance-sharded";
    ASSERT_LT(sharded, props.size())
        << "fallback path untested: every property sharded";

    for (const DataplaneEvent& ev : events) parallel.OnDataplaneEvent(ev);
    parallel.AdvanceTime(end);
    parallel.Stop();

    const std::string label = "workers=" + std::to_string(workers) +
                              " seed=" + std::to_string(seed) + " " +
                              EngineKindName(kind);

    const auto serial_all = serial->set.AllViolations();
    const auto parallel_all = parallel.AllViolations();
    ASSERT_EQ(serial_all.size(), parallel_all.size()) << label;
    EXPECT_GT(serial_all.size(), 0u) << label << " (vacuous parity)";
    for (std::size_t i = 0; i < serial_all.size(); ++i)
      ExpectViolationEq(serial_all[i], parallel_all[i],
                        label + " all[" + std::to_string(i) + "]");

    const auto parallel_merged = parallel.MergedViolations();
    ASSERT_EQ(serial->merged.size(), parallel_merged.size()) << label;
    for (std::size_t i = 0; i < serial->merged.size(); ++i)
      ExpectViolationEq(serial->merged[i], parallel_merged[i],
                        label + " merged[" + std::to_string(i) + "]");

    ExpectShardedSnapshotEq(serial->set.TelemetrySnapshot(),
                            parallel.TelemetrySnapshot(), label);
    EXPECT_EQ(serial->set.TotalViolations(), parallel.TotalViolations())
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workers, InstanceShardParity,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::ValuesIn(kBothEngines)));

TEST(InstanceShardTest, SingleHotPropertySpreadsInstancesAcrossReplicas) {
  // The paper's hot-property case: ONE keyed property, many concurrent
  // instances. Property sharding would pin it to a single worker; instance
  // sharding must spread the live instances across replicas while staying
  // bit-identical to serial.
  const Property hot = KeyedPairProperty("hot-pairs");
  ASSERT_TRUE(BuildShardPlan(hot, MonitorConfig{}).has_value());

  const auto events = PairStream(2026, 6000, /*keys=*/80);
  const SimTime end = events.back().time + Duration::Seconds(120);
  for (const EngineKind kind : kBothEngines) {
    SCOPED_TRACE(EngineKindName(kind));
    const MonitorConfig mcfg = EngineConfig(kind);
    const auto serial = RunSerial({hot}, events, end, mcfg);

    ParallelConfig cfg;
    cfg.workers = 4;
    cfg.batch_capacity = 128;
    // The pool caps at ring_capacity + 2 = 10 batches while the stream
    // needs ~47 of 128 events, so the producer must recycle batches: reuse
    // follows from arithmetic, not from how fast the workers wake.
    cfg.ring_capacity = 8;
    cfg.shard_mode = ShardMode::kInstance;
    ParallelMonitorSet parallel(cfg);
    parallel.Add(hot, mcfg);
    parallel.Start();
    ASSERT_TRUE(parallel.instance_sharded(0));
    for (const DataplaneEvent& ev : events) parallel.OnDataplaneEvent(ev);
    parallel.Flush();

    // Mid-stream, before the windows lapse: the live population must be
    // split — more than one replica owns instances.
    const telemetry::Snapshot mid = parallel.TelemetrySnapshot();
    std::size_t populated = 0;
    std::int64_t spread_total = 0;
    for (std::size_t r = 0; r < 4; ++r) {
      const std::string key = "monitor.parallel.shard.hot-pairs.replica." +
                              std::to_string(r) + ".live_instances";
      ASSERT_TRUE(mid.Has(key)) << key;
      const std::int64_t live = mid.gauge(key);
      if (live > 0) ++populated;
      spread_total += live;
    }
    EXPECT_GT(populated, 1u) << "instances did not spread across replicas";
    EXPECT_EQ(spread_total,
              mid.gauge("monitor.engine.hot-pairs.live_instances"));

    // Steady state recycles batches instead of allocating: the pool never
    // grows past its cap and reuse dominates.
    EXPECT_LE(mid.counter("monitor.parallel.batch_pool.allocated"),
              cfg.ring_capacity + 2);
    EXPECT_GT(mid.counter("monitor.parallel.batch_pool.reused"), 0u);

    parallel.AdvanceTime(end);
    parallel.Stop();

    const auto serial_all = serial->set.AllViolations();
    const auto parallel_all = parallel.AllViolations();
    ASSERT_EQ(serial_all.size(), parallel_all.size());
    EXPECT_GT(serial_all.size(), 0u);
    for (std::size_t i = 0; i < serial_all.size(); ++i)
      ExpectViolationEq(serial_all[i], parallel_all[i],
                        "hot all[" + std::to_string(i) + "]");
    const auto parallel_merged = parallel.MergedViolations();
    ASSERT_EQ(serial->merged.size(), parallel_merged.size());
    for (std::size_t i = 0; i < serial->merged.size(); ++i)
      ExpectViolationEq(serial->merged[i], parallel_merged[i],
                        "hot merged[" + std::to_string(i) + "]");
    ExpectShardedSnapshotEq(serial->set.TelemetrySnapshot(),
                            parallel.TelemetrySnapshot(), "hot final");
  }
}

TEST(InstanceShardTest, HotAttachAndDetachOfShardedProperty) {
  // Attach a shard-eligible property mid-stream, run it sharded, then
  // detach it mid-stream; both transitions happen at the quiesce point and
  // must match a serial set doing the identical lifecycle.
  const Property p1 = KeyedPairProperty("pairs-1");
  const Property p2 = KeyedPairProperty("pairs-2");
  const auto events = PairStream(7, 900, /*keys=*/24);
  const SimTime end = events.back().time + Duration::Seconds(300);
  for (const EngineKind kind : kBothEngines) {
    SCOPED_TRACE(EngineKindName(kind));
    const MonitorConfig mcfg = EngineConfig(kind);
    MonitorSet serial;
    ParallelConfig cfg;
    cfg.workers = 4;
    cfg.batch_capacity = 32;
    cfg.shard_mode = ShardMode::kInstance;
    ParallelMonitorSet parallel(cfg);

    const PropertyId s1 = serial.AttachProperty(p1, mcfg);
    parallel.Add(p1, mcfg);
    parallel.Start();
    ASSERT_TRUE(parallel.instance_sharded(0));

    std::optional<std::vector<Violation>> serial_drained, parallel_drained;
    PropertyId s2 = 0, q2 = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i == 300) {
        s2 = serial.AttachProperty(p2, mcfg);
        q2 = parallel.AttachProperty(p2, mcfg);
        EXPECT_TRUE(parallel.instance_sharded(q2));
      }
      if (i == 600) {
        serial_drained = serial.DetachProperty(s1);
        parallel_drained = parallel.DetachProperty(0);
        EXPECT_FALSE(parallel.instance_sharded(0));
      }
      serial.OnDataplaneEvent(events[i]);
      parallel.OnDataplaneEvent(events[i]);
    }
    serial.AdvanceTime(end);
    parallel.AdvanceTime(end);
    parallel.Stop();
    (void)s2;

    // The detach returns the sharded property's violations in serial
    // emission order with serial instance ids.
    ASSERT_TRUE(serial_drained.has_value());
    ASSERT_TRUE(parallel_drained.has_value());
    ASSERT_EQ(serial_drained->size(), parallel_drained->size());
    EXPECT_GT(serial_drained->size(), 0u) << "(vacuous detach)";
    for (std::size_t i = 0; i < serial_drained->size(); ++i)
      ExpectViolationEq((*serial_drained)[i], (*parallel_drained)[i],
                        "drained[" + std::to_string(i) + "]");

    // And the surviving property agrees end-to-end.
    const auto serial_all = serial.AllViolations();
    const auto parallel_all = parallel.AllViolations();
    ASSERT_EQ(serial_all.size(), parallel_all.size());
    EXPECT_GT(serial_all.size(), 0u) << "(vacuous survivor)";
    for (std::size_t i = 0; i < serial_all.size(); ++i)
      ExpectViolationEq(serial_all[i], parallel_all[i],
                        "all[" + std::to_string(i) + "]");
    ExpectShardedSnapshotEq(serial.TelemetrySnapshot(),
                            parallel.TelemetrySnapshot(), "lifecycle final");
  }
}

TEST(InstanceShardTest, AutoModeShardsOnlyWhenWorkersExceedProperties) {
  // kAuto: 13 properties over 2 workers — property sharding already fills
  // every core, so nothing instance-shards...
  {
    ParallelConfig cfg;
    cfg.workers = 2;
    cfg.shard_mode = ShardMode::kAuto;
    ParallelMonitorSet set(cfg);
    for (const Property& p : Table1Properties()) set.Add(p);
    set.Start();
    for (std::size_t i = 0; i < set.size(); ++i)
      EXPECT_FALSE(set.instance_sharded(i)) << i;
    set.Stop();
  }
  // ...but 1 hot property over 4 workers would leave 3 cores idle, so it
  // splits.
  {
    ParallelConfig cfg;
    cfg.workers = 4;
    cfg.shard_mode = ShardMode::kAuto;
    ParallelMonitorSet set(cfg);
    set.Add(KeyedPairProperty("solo"));
    set.Start();
    EXPECT_TRUE(set.instance_sharded(0));
    set.Stop();
  }
}

TEST(InstanceShardTest, IneligiblePropertiesFallBackToPropertySharding) {
  // An abort pattern breaks the static analysis (the aborting event need
  // not carry the routing key), so the property must refuse to split and
  // still run correctly under kInstance via the property-sharded path.
  PropertyBuilder b("aborting", "ineligible: abort stage");
  const VarId A = b.Var("A");
  b.AddStage("open")
      .Match(PatternBuilder::Arrival().Build())
      .Bind(A, FieldId::kIpSrc)
      .Window(Duration::Seconds(30))
      .AbortOn(PatternBuilder::LinkStatus().Build());
  b.AddStage("drop")
      .Match(PatternBuilder::Egress().EqVar(FieldId::kIpDst, A).Dropped()
                 .Build());
  const Property p = std::move(b).Build();
  std::string why;
  ASSERT_FALSE(BuildShardPlan(p, MonitorConfig{}, &why).has_value());
  EXPECT_FALSE(why.empty());

  const auto events = FuzzSeedStream(11, 600);
  const SimTime end = events.back().time + Duration::Seconds(60);
  for (const EngineKind kind : kBothEngines) {
    SCOPED_TRACE(EngineKindName(kind));
    const MonitorConfig mcfg = EngineConfig(kind);
    const auto serial = RunSerial({p}, events, end, mcfg);

    ParallelConfig cfg;
    cfg.workers = 3;
    cfg.shard_mode = ShardMode::kInstance;
    ParallelMonitorSet parallel(cfg);
    parallel.Add(p, mcfg);
    parallel.Start();
    EXPECT_FALSE(parallel.instance_sharded(0));
    for (const DataplaneEvent& ev : events) parallel.OnDataplaneEvent(ev);
    parallel.AdvanceTime(end);
    parallel.Stop();

    const auto serial_all = serial->set.AllViolations();
    const auto parallel_all = parallel.AllViolations();
    ASSERT_EQ(serial_all.size(), parallel_all.size());
    for (std::size_t i = 0; i < serial_all.size(); ++i)
      ExpectViolationEq(serial_all[i], parallel_all[i],
                        "fallback[" + std::to_string(i) + "]");
  }
}

}  // namespace
}  // namespace swmon
