// ParallelMonitorSet: sharded worker-pool execution must be observationally
// identical to the serial MonitorSet — violations, per-engine stats, and
// set-level counters — at every worker count, on both engines. Replays
// the fuzz-test seed streams plus all 13 Table-1 catalog properties
// through both paths at 1/2/4/8 workers. Carries the `tsan` CTest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
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

void ExpectViolationEq(const Violation& a, const Violation& b,
                       const std::string& label) {
  EXPECT_EQ(a.property, b.property) << label;
  EXPECT_EQ(a.time, b.time) << label;
  EXPECT_EQ(a.instance_id, b.instance_id) << label;
  EXPECT_EQ(a.trigger_stage, b.trigger_stage) << label;
  EXPECT_EQ(a.bindings, b.bindings) << label;
  EXPECT_EQ(a.history.size(), b.history.size()) << label;
}

/// Snapshot equality with a readable diff: every counter/gauge in either
/// snapshot must agree — per-engine families and set-level totals alike.
/// `b` (the parallel set's snapshot) may additionally carry runtime-only
/// monitor.parallel.* metrics that a serial set cannot emit; those are
/// excluded from the parity contract.
void ExpectSnapshotEq(const telemetry::Snapshot& a,
                      const telemetry::Snapshot& b, const std::string& label) {
  std::size_t b_shared = 0;
  for (const auto& [name, sample] : b.samples())
    if (name.rfind("monitor.parallel.", 0) != 0) ++b_shared;
  for (const auto& [name, sample] : a.samples()) {
    ASSERT_TRUE(b.Has(name)) << label << " missing " << name;
    EXPECT_TRUE(sample == b.samples().at(name)) << label << " at " << name;
  }
  EXPECT_EQ(a.size(), b_shared) << label;
}

/// Runs the serial reference and also records the serial merged order: after
/// each event (and the final AdvanceTime), new violations per engine in
/// attach order — the order ParallelMonitorSet::MergedViolations() promises.
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

class ParallelParity
    : public ::testing::TestWithParam<std::tuple<std::size_t, EngineKind>> {};

TEST_P(ParallelParity, FuzzSeedStreamsMatchSerialExactly) {
  const auto [workers, kind] = GetParam();
  const MonitorConfig mcfg = EngineConfig(kind);
  const std::vector<Property> props = Table1Properties();
  ASSERT_EQ(props.size(), 13u);

  for (const std::uint64_t seed : {99ull, 123ull}) {
    const auto events = FuzzSeedStream(seed, 1500);
    const SimTime end = events.back().time + Duration::Seconds(300);
    const auto serial = RunSerial(props, events, end, mcfg);

    ParallelConfig cfg;
    cfg.workers = workers;
    cfg.batch_capacity = 128;
    ParallelMonitorSet parallel(cfg);
    for (const Property& p : props) parallel.Add(p, mcfg);
    parallel.Start();
    for (const DataplaneEvent& ev : events) parallel.OnDataplaneEvent(ev);
    parallel.AdvanceTime(end);
    parallel.Stop();

    const std::string label = "workers=" + std::to_string(workers) +
                              " seed=" + std::to_string(seed) + " " +
                              EngineKindName(kind);

    // Identical violation sequences: attach-order concatenation...
    const auto serial_all = serial->set.AllViolations();
    const auto parallel_all = parallel.AllViolations();
    ASSERT_EQ(serial_all.size(), parallel_all.size()) << label;
    EXPECT_GT(serial_all.size(), 0u) << label << " (vacuous parity)";
    for (std::size_t i = 0; i < serial_all.size(); ++i)
      ExpectViolationEq(serial_all[i], parallel_all[i],
                        label + " all[" + std::to_string(i) + "]");

    // ...and the stream-order merge.
    const auto parallel_merged = parallel.MergedViolations();
    ASSERT_EQ(serial->merged.size(), parallel_merged.size()) << label;
    for (std::size_t i = 0; i < serial->merged.size(); ++i)
      ExpectViolationEq(serial->merged[i], parallel_merged[i],
                        label + " merged[" + std::to_string(i) + "]");

    // Identical merged counter snapshot: per-engine families plus the
    // set-level dispatch counters (batched vs per-event counting), all
    // through the one telemetry query path.
    ExpectSnapshotEq(serial->set.TelemetrySnapshot(),
                     parallel.TelemetrySnapshot(), label);
    EXPECT_EQ(serial->set.TotalViolations(), parallel.TotalViolations())
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workers, ParallelParity,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::ValuesIn(kBothEngines)));

TEST(ParallelMonitorSetTest, CountersMatchSerialAcrossPartialBatchFlushes) {
  // An odd batch size plus mid-stream queries forces partial-batch flushes;
  // events_dispatched/events_filtered must still count identically.
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(7, 333);

  for (const EngineKind kind : kBothEngines) {
    SCOPED_TRACE(EngineKindName(kind));
    const MonitorConfig mcfg = EngineConfig(kind);
    MonitorSet serial;
    for (const Property& p : props) serial.Add(p, mcfg);

    ParallelConfig cfg;
    cfg.workers = 3;
    cfg.batch_capacity = 7;
    ParallelMonitorSet parallel(cfg);
    for (const Property& p : props) parallel.Add(p, mcfg);
    parallel.Start();

    for (std::size_t i = 0; i < events.size(); ++i) {
      serial.OnDataplaneEvent(events[i]);
      parallel.OnDataplaneEvent(events[i]);
      if (i % 50 == 49) {
        // Mid-stream query = flush point; totals must agree at every one.
        ExpectSnapshotEq(serial.TelemetrySnapshot(),
                         parallel.TelemetrySnapshot(),
                         "mid-stream i=" + std::to_string(i));
      }
    }
    parallel.Stop();
    ExpectSnapshotEq(serial.TelemetrySnapshot(), parallel.TelemetrySnapshot(),
                     "final");
  }
}

TEST(ParallelMonitorSetTest, MergedViolationsAgreeAcrossWorkerCounts) {
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(42, 800);
  const SimTime end = events.back().time + Duration::Seconds(120);

  std::vector<Violation> reference;
  for (const std::size_t workers : {1u, 2u, 5u}) {
    ParallelConfig cfg;
    cfg.workers = workers;
    cfg.batch_capacity = workers == 2 ? 11 : 64;  // vary flush boundaries too
    ParallelMonitorSet set(cfg);
    for (const Property& p : props) set.Add(p);
    set.Start();
    for (const DataplaneEvent& ev : events) set.OnDataplaneEvent(ev);
    set.AdvanceTime(end);
    const auto merged = set.MergedViolations();
    if (reference.empty()) {
      reference = merged;
      ASSERT_GT(reference.size(), 0u);
    } else {
      ASSERT_EQ(reference.size(), merged.size()) << workers;
      for (std::size_t i = 0; i < merged.size(); ++i)
        ExpectViolationEq(reference[i], merged[i],
                          "workers=" + std::to_string(workers));
    }
  }
}

TEST(ParallelMonitorSetTest, AdvanceTimeFiresDeadlinesLikeSerial) {
  // Mirror of MonitorSetTest.AdvanceTimeReachesEveryEngine through the
  // batched path: both pending deadlines fire on AdvanceTime even though
  // no batch was full (flush-on-query keeps timeout semantics unchanged).
  const auto ev = [](std::int64_t ms,
                     std::initializer_list<std::pair<FieldId, std::uint64_t>>
                         kv) {
    DataplaneEvent e;
    e.type = DataplaneEventType::kArrival;
    e.time = SimTime::Zero() + Duration::Millis(ms);
    for (const auto& [k, v] : kv) e.fields.Set(k, v);
    return e;
  };
  ParallelConfig cfg;
  cfg.workers = 2;
  cfg.batch_capacity = 1024;  // never fills: only flush-on-query publishes
  ParallelMonitorSet set(cfg);
  set.Add(ArpProxyReplyDeadline());
  set.Add(DhcpReplyDeadline());
  set.Start();
  set.OnDataplaneEvent(
      ev(1, {{FieldId::kArpOp, 2}, {FieldId::kArpSenderIp, 7}}));
  set.OnDataplaneEvent(
      ev(2, {{FieldId::kArpOp, 1}, {FieldId::kArpTargetIp, 7}}));
  set.OnDataplaneEvent(ev(3, {{FieldId::kDhcpMsgType, 3},
                              {FieldId::kDhcpChaddr, 0xaa},
                              {FieldId::kDhcpXid, 1}}));
  set.AdvanceTime(SimTime::Zero() + Duration::Seconds(30));
  EXPECT_EQ(set.TotalViolations(), 2u);
  const auto merged = set.MergedViolations();
  ASSERT_EQ(merged.size(), 2u);
  // AdvanceTime violations merge in attach order at the advance point.
  EXPECT_EQ(merged[0].property, ArpProxyReplyDeadline().name);
  EXPECT_EQ(merged[1].property, DhcpReplyDeadline().name);
}

TEST(ParallelMonitorSetTest, GreedyAssignmentIsBalancedAndDeterministic) {
  const std::vector<double> weights = {10, 1, 1, 1, 7, 3, 3};
  const auto a = GreedyAssignShards(weights, 3);
  const auto b = GreedyAssignShards(weights, 3);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), weights.size());
  std::vector<double> load(3, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_LT(a[i], 3u);
    load[a[i]] += weights[i];
  }
  // LPT on these weights: {10}, {7, 1}, {3, 3, 1, 1} — max load 10, i.e.
  // no worker exceeds the single heaviest engine here.
  EXPECT_EQ(*std::max_element(load.begin(), load.end()), 10);

  // More workers than engines: every engine still lands on a valid shard.
  const auto wide = GreedyAssignShards({2, 1}, 8);
  EXPECT_LT(wide[0], 8u);
  EXPECT_LT(wide[1], 8u);
  EXPECT_NE(wide[0], wide[1]);
}

TEST(ParallelMonitorSetTest, CalibrationWeighsBusyEnginesHeavier) {
  // On an ARP-heavy sample, the ARP deadline property does real instance
  // work while the FTP property never matches; calibration must notice.
  std::vector<DataplaneEvent> sample;
  for (int i = 0; i < 200; ++i) {
    DataplaneEvent ev;
    ev.type = DataplaneEventType::kArrival;
    ev.time = SimTime::Zero() + Duration::Millis(i);
    ev.fields.Set(FieldId::kArpOp, i % 2 == 0 ? 2 : 1);
    ev.fields.Set(FieldId::kArpSenderIp, 7 + i % 3);
    ev.fields.Set(FieldId::kArpTargetIp, 7 + i % 3);
    sample.push_back(std::move(ev));
  }
  const std::vector<Property> props = {ArpProxyReplyDeadline(),
                                       FtpDataPortMatchesControl()};
  const auto weights = CalibrateShardWeights(props, sample);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_GT(weights[0], weights[1]);
  EXPECT_GE(weights[1], 1.0);
}

TEST(ParallelMonitorSetTest, ShardsPartitionTheEngines) {
  ParallelConfig cfg;
  cfg.workers = 4;
  ParallelMonitorSet set(cfg);
  const std::vector<Property> props = Table1Properties();
  for (const Property& p : props) set.Add(p);
  set.Start();
  EXPECT_EQ(set.worker_count(), 4u);
  std::vector<std::size_t> per_worker(4, 0);
  for (std::size_t i = 0; i < set.size(); ++i) {
    ASSERT_LT(set.shard_of(i), 4u);
    ++per_worker[set.shard_of(i)];
  }
  // Uniform weights, 13 engines, 4 workers: greedy gives each 3 or 4.
  for (const std::size_t n : per_worker) {
    EXPECT_GE(n, 3u);
    EXPECT_LE(n, 4u);
  }
}

TEST(ParallelMonitorSetTest, FlushEventsHookDrainsViaObserverInterface) {
  ParallelConfig cfg;
  cfg.workers = 2;
  cfg.batch_capacity = 1024;
  ParallelMonitorSet set(cfg);
  set.Add(FirewallReturnNotDropped());
  set.Start();
  DataplaneObserver* obs = &set;  // as a SoftSwitch would hold it

  DataplaneEvent arrival;
  arrival.type = DataplaneEventType::kArrival;
  arrival.time = SimTime::Zero() + Duration::Millis(1);
  arrival.fields.Set(FieldId::kInPort, 1);
  arrival.fields.Set(FieldId::kIpSrc, 10);
  arrival.fields.Set(FieldId::kIpDst, 20);
  obs->OnDataplaneEvent(arrival);

  DataplaneEvent drop;
  drop.type = DataplaneEventType::kEgress;
  drop.time = SimTime::Zero() + Duration::Millis(2);
  drop.fields.Set(FieldId::kIpSrc, 20);
  drop.fields.Set(FieldId::kIpDst, 10);
  drop.fields.Set(FieldId::kEgressAction,
                  static_cast<std::uint64_t>(EgressActionValue::kDrop));
  obs->OnDataplaneEvent(drop);

  obs->FlushEvents();  // the dataplane's quiet-point hook
  EXPECT_EQ(set.engine(0).violations().size(), 1u);
}

}  // namespace
}  // namespace swmon
