// Hot property lifecycle: attaching and detaching properties on a live
// MonitorSet / ParallelMonitorSet must not perturb the resident properties
// in any observable way. Replays a fuzz seed stream through all 13 Table-1
// properties while an extra property hot-attaches at 1/3 and hot-detaches
// at 2/3 and one resident property detaches at 1/2; every untouched
// property's violation sequence must be bit-identical to a run with no
// lifecycle activity at all, and each detached property's drained
// violations must equal a fresh engine run over exactly the slice of the
// stream it was attached for. Parameterized over serial and 1/2/4-worker
// parallel execution. Carries the `tsan` CTest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "monitor/compiled/engine.hpp"
#include "monitor/engine.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "properties/catalog.hpp"

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

void ExpectViolationsEq(const std::vector<Violation>& a,
                        const std::vector<Violation>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i)
    ExpectViolationEq(a[i], b[i], label + "[" + std::to_string(i) + "]");
}

/// What a property should have observed while attached for exactly
/// events[begin, end): a fresh engine over that slice, nothing else.
std::vector<Violation> FreshEngineRun(const Property& property,
                                      const std::vector<DataplaneEvent>& events,
                                      std::size_t begin, std::size_t end) {
  MonitorEngine engine(property, MonitorConfig{});
  for (std::size_t i = begin; i < end; ++i) engine.ProcessEvent(events[i]);
  return engine.violations();
}

/// Thin uniform facade so one test body drives both set types.
struct SetUnderTest {
  std::unique_ptr<MonitorSet> serial;
  std::unique_ptr<ParallelMonitorSet> parallel;

  explicit SetUnderTest(std::size_t workers) {
    if (workers == 0) {
      serial = std::make_unique<MonitorSet>();
    } else {
      ParallelConfig cfg;
      cfg.workers = workers;
      cfg.batch_capacity = 64;  // small: lifecycle ops land mid-batch often
      parallel = std::make_unique<ParallelMonitorSet>(cfg);
      parallel->Start();
    }
  }
  PropertyId Attach(const Property& p, MonitorConfig config = {}) {
    return parallel ? parallel->AttachProperty(p, config)
                    : serial->AttachProperty(p, config);
  }
  std::optional<std::vector<Violation>> Detach(PropertyId id) {
    return parallel ? parallel->DetachProperty(id)
                    : serial->DetachProperty(id);
  }
  void Deliver(const DataplaneEvent& ev) {
    if (parallel) {
      parallel->OnDataplaneEvent(ev);
    } else {
      serial->OnDataplaneEvent(ev);
    }
  }
  void Finish(SimTime end) {
    if (parallel) {
      parallel->AdvanceTime(end);
      parallel->Stop();
    } else {
      serial->AdvanceTime(end);
    }
  }
  const PropertyMonitor& engine(PropertyId id) const {
    return parallel ? parallel->engine(id) : serial->engine(id);
  }
  bool attached(PropertyId id) const {
    return parallel ? parallel->attached(id) : serial->attached(id);
  }
  std::size_t attached_count() const {
    return parallel ? parallel->attached_count() : serial->attached_count();
  }
};

// 0 = serial MonitorSet; >0 = ParallelMonitorSet worker count.
class HotLifecycle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HotLifecycle, UntouchedPropertiesAreBitIdenticalToNoLifecycleRun) {
  const std::vector<Property> props = Table1Properties();
  ASSERT_EQ(props.size(), 13u);
  const auto events = FuzzSeedStream(99, 1500);
  const SimTime end = events.back().time + Duration::Seconds(300);

  // Reference: the exact same stream with no lifecycle activity.
  MonitorSet base;
  for (const Property& p : props) base.Add(p);
  for (const DataplaneEvent& ev : events) base.OnDataplaneEvent(ev);
  base.AdvanceTime(end);

  const std::size_t third = events.size() / 3;
  const std::size_t half = events.size() / 2;
  const std::size_t two_thirds = 2 * events.size() / 3;
  const std::size_t detached_resident = 5;

  SetUnderTest set(GetParam());
  std::vector<PropertyId> ids;
  for (const Property& p : props) ids.push_back(set.Attach(p));

  PropertyId extra_id = 0;
  std::vector<Violation> extra_drained;
  std::vector<Violation> resident_drained;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == third) extra_id = set.Attach(props[0]);
    if (i == half) {
      auto drained = set.Detach(ids[detached_resident]);
      ASSERT_TRUE(drained.has_value());
      resident_drained = std::move(*drained);
    }
    if (i == two_thirds) {
      auto drained = set.Detach(extra_id);
      ASSERT_TRUE(drained.has_value());
      extra_drained = std::move(*drained);
    }
    set.Deliver(events[i]);
  }
  set.Finish(end);

  const std::string label = "workers=" + std::to_string(GetParam());
  EXPECT_EQ(set.attached_count(), 12u) << label;
  EXPECT_FALSE(set.attached(ids[detached_resident])) << label;

  // Every untouched resident property: identical violation sequence.
  std::size_t untouched_total = 0;
  for (std::size_t i = 0; i < props.size(); ++i) {
    if (i == detached_resident) continue;
    ExpectViolationsEq(base.engine(i).violations(),
                       set.engine(ids[i]).violations(),
                       label + " " + props[i].name);
    untouched_total += base.engine(i).violations().size();
  }
  EXPECT_GT(untouched_total, 0u) << label << " (vacuous comparison)";

  // The detached resident saw exactly events [0, half); the hot-attached
  // extra saw exactly [third, two_thirds). Both must match a fresh engine
  // run over just that slice — no leakage from lifecycle neighbours.
  ExpectViolationsEq(FreshEngineRun(props[detached_resident], events, 0, half),
                     resident_drained, label + " detached resident");
  ExpectViolationsEq(FreshEngineRun(props[0], events, third, two_thirds),
                     extra_drained, label + " hot-attached extra");
}

TEST_P(HotLifecycle, CompiledEnginesHotAttachAndDetachLikeInterpreted) {
  // The compiled engine through the same lifecycle machinery: residents
  // alternate interpreted/compiled per slot, the hot-attached extra and
  // one detached resident run compiled. Every slot must stay bit-identical
  // to the all-interpreted no-lifecycle reference — engine choice and
  // lifecycle timing are both observationally invisible.
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(77, 1200);
  const SimTime end = events.back().time + Duration::Seconds(300);

  MonitorConfig compiled_cfg;
  compiled_cfg.engine = EngineKind::kCompiled;
  MonitorConfig interpreted_cfg;
  interpreted_cfg.engine = EngineKind::kInterpreted;

  MonitorSet base;
  for (const Property& p : props) base.Add(p, interpreted_cfg);
  for (const DataplaneEvent& ev : events) base.OnDataplaneEvent(ev);
  base.AdvanceTime(end);

  const std::size_t third = events.size() / 3;
  const std::size_t half = events.size() / 2;
  const std::size_t two_thirds = 2 * events.size() / 3;
  const std::size_t detached_resident = 4;  // even slot: compiled

  SetUnderTest set(GetParam());
  std::vector<PropertyId> ids;
  for (std::size_t i = 0; i < props.size(); ++i)
    ids.push_back(
        set.Attach(props[i], i % 2 == 0 ? compiled_cfg : interpreted_cfg));
  // The compiled slots really run the compiled engine (no silent fallback).
  for (std::size_t i = 0; i < props.size(); i += 2)
    ASSERT_NE(dynamic_cast<const CompiledEngine*>(&set.engine(ids[i])),
              nullptr)
        << props[i].name;

  PropertyId extra_id = 0;
  std::vector<Violation> extra_drained;
  std::vector<Violation> resident_drained;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == third) extra_id = set.Attach(props[0], compiled_cfg);
    if (i == half) {
      auto drained = set.Detach(ids[detached_resident]);
      ASSERT_TRUE(drained.has_value());
      resident_drained = std::move(*drained);
    }
    if (i == two_thirds) {
      auto drained = set.Detach(extra_id);
      ASSERT_TRUE(drained.has_value());
      extra_drained = std::move(*drained);
    }
    set.Deliver(events[i]);
  }
  set.Finish(end);

  const std::string label = "compiled workers=" + std::to_string(GetParam());
  std::size_t untouched_total = 0;
  for (std::size_t i = 0; i < props.size(); ++i) {
    if (i == detached_resident) continue;
    ExpectViolationsEq(base.engine(i).violations(),
                       set.engine(ids[i]).violations(),
                       label + " " + props[i].name);
    untouched_total += base.engine(i).violations().size();
  }
  EXPECT_GT(untouched_total, 0u) << label << " (vacuous comparison)";

  ExpectViolationsEq(FreshEngineRun(props[detached_resident], events, 0, half),
                     resident_drained, label + " detached compiled resident");
  ExpectViolationsEq(FreshEngineRun(props[0], events, third, two_thirds),
                     extra_drained, label + " hot-attached compiled extra");
}

INSTANTIATE_TEST_SUITE_P(Execution, HotLifecycle,
                         ::testing::Values(0u, 1u, 2u, 4u));

TEST(MonitorSetLifecycle, SlotsAreStableAndNeverReused) {
  const std::vector<Property> props = Table1Properties();
  MonitorSet set;
  const PropertyId a = set.AttachProperty(props[0]);
  const PropertyId b = set.AttachProperty(props[1]);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  ASSERT_TRUE(set.DetachProperty(a).has_value());
  EXPECT_FALSE(set.attached(a));
  EXPECT_TRUE(set.attached(b));
  // Double-detach and unknown ids are rejected, not fatal.
  EXPECT_FALSE(set.DetachProperty(a).has_value());
  EXPECT_FALSE(set.DetachProperty(99).has_value());
  // New attach gets a fresh slot; b keeps its id and its engine.
  const PropertyId c = set.AttachProperty(props[2]);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.attached_count(), 2u);
  EXPECT_EQ(set.engine_name(b), props[1].name);
}

TEST(MonitorSetLifecycle, DrainViolationsEmptiesEnginesButKeepsCounts) {
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(123, 800);
  MonitorSet set;
  for (const Property& p : props) set.Add(p);
  std::vector<Violation> drained;
  for (const DataplaneEvent& ev : events) {
    set.OnDataplaneEvent(ev);
    auto batch = set.DrainViolations();
    drained.insert(drained.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  }
  ASSERT_GT(drained.size(), 0u);
  // Engines hold nothing after a drain...
  EXPECT_EQ(set.TotalViolations(), 0u);
  for (std::size_t i = 0; i < set.size(); ++i)
    EXPECT_TRUE(set.engine(i).violations().empty());
  // ...and the incremental drains reassemble the no-drain run exactly.
  MonitorSet base;
  for (const Property& p : props) base.Add(p);
  for (const DataplaneEvent& ev : events) base.OnDataplaneEvent(ev);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < base.size(); ++i)
    expected += base.engine(i).violations().size();
  EXPECT_EQ(drained.size(), expected);
}

TEST(ParallelLifecycle, DrainViolationsMatchesSerialDrains) {
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(42, 600);

  MonitorSet serial;
  for (const Property& p : props) serial.Add(p);
  ParallelConfig cfg;
  cfg.workers = 3;
  cfg.batch_capacity = 32;
  ParallelMonitorSet parallel(cfg);
  for (const Property& p : props) parallel.Add(p);
  parallel.Start();

  // Serial drains hand back attach-order batches, parallel drains merged
  // stream order; per property both preserve engine order, so compare the
  // per-property subsequences.
  const auto by_property = [](const std::vector<Violation>& all) {
    std::map<std::string, std::vector<Violation>> out;
    for (const Violation& v : all) out[v.property].push_back(v);
    return out;
  };
  const auto compare_drain = [&](const std::vector<Violation>& s,
                                 const std::vector<Violation>& p,
                                 const std::string& label) {
    ASSERT_EQ(s.size(), p.size()) << label;
    const auto sp = by_property(s);
    const auto pp = by_property(p);
    ASSERT_EQ(sp.size(), pp.size()) << label;
    for (const auto& [name, sv] : sp) {
      ASSERT_TRUE(pp.count(name)) << label << " " << name;
      ExpectViolationsEq(sv, pp.at(name), label + " " + name);
    }
  };

  std::size_t serial_total = 0, parallel_total = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    serial.OnDataplaneEvent(events[i]);
    parallel.OnDataplaneEvent(events[i]);
    if (i % 97 == 96) {
      // Periodic mid-stream drains (the daemon's resident pattern): the
      // two paths must hand back identical violation batches.
      const auto s = serial.DrainViolations();
      const auto p = parallel.DrainViolations();
      compare_drain(s, p, "drain at i=" + std::to_string(i));
      serial_total += s.size();
      parallel_total += p.size();
    }
  }
  const auto s = serial.DrainViolations();
  const auto p = parallel.DrainViolations();
  compare_drain(s, p, "final drain");
  serial_total += s.size();
  parallel_total += p.size();
  parallel.Stop();
  EXPECT_GT(serial_total, 0u);
  EXPECT_EQ(serial_total, parallel_total);
  // Post-drain the parallel merge state is empty too.
  EXPECT_TRUE(parallel.MergedViolations().empty());
}

}  // namespace
}  // namespace swmon
