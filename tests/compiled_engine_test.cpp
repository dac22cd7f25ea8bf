// Differential harness for the compiled bytecode engine: CompiledEngine
// must be observationally bit-identical to the reference interpreter
// (MonitorEngine) — same violation streams (instance ids, binding order),
// same counters for everything CollectInto publishes — on fuzz seed
// streams and the full property catalog, serially and through the
// 1/2/4-worker parallel set. Also covers engine selection (the compiled
// default and the interpreter fallback rules), forbidden groups and hash
// bindings with more members than 16 bits count, the serialize → parse →
// compile round trip for the 13 Table-1 properties, and minimized
// regressions for the two interpreter hot-path bugs the differential
// harness originally exposed (repro streams under tests/data/).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "daemon/event_source.hpp"
#include "monitor/compiled/bytecode.hpp"
#include "monitor/compiled/engine.hpp"
#include "monitor/engine.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "monitor/property_builder.hpp"
#include "properties/catalog.hpp"
#include "spl/spl.hpp"
#include "telemetry_helpers.hpp"

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

/// The full observational contract between the two engines after both
/// consumed the same stream: violation-by-violation equality plus every
/// counter and gauge CollectInto publishes.
void ExpectEnginesAgree(const PropertyMonitor& interpreted,
                        const PropertyMonitor& compiled,
                        const std::string& label) {
  const auto& va = interpreted.violations();
  const auto& vb = compiled.violations();
  ASSERT_EQ(va.size(), vb.size()) << label;
  for (std::size_t i = 0; i < va.size(); ++i)
    ExpectViolationEq(va[i], vb[i], label + " [" + std::to_string(i) + "]");

  EXPECT_EQ(interpreted.live_instances(), compiled.live_instances()) << label;
  EXPECT_EQ(interpreted.now(), compiled.now()) << label;

  telemetry::Snapshot sa, sb;
  interpreted.CollectInto(sa, "e");
  compiled.CollectInto(sb, "e");
  for (const auto& [name, sample] : sa.samples()) {
    ASSERT_TRUE(sb.Has(name)) << label << " compiled missing " << name;
    EXPECT_TRUE(sample == sb.samples().at(name)) << label << " at " << name;
  }
  // The compiled engine additionally publishes its OpenMap probe telemetry
  // (monitor.compiled.*), which the interpreter has no counterpart for;
  // everything else must match name-for-name.
  std::size_t sb_shared = 0;
  for (const auto& [name, sample] : sb.samples())
    if (name.rfind("monitor.compiled.", 0) != 0) ++sb_shared;
  EXPECT_EQ(sa.size(), sb_shared) << label;
}

/// Builds via the factory and asserts the compiled engine actually got
/// selected — a silent interpreter fallback would make every differential
/// assertion vacuously true.
std::unique_ptr<PropertyMonitor> MakeCompiled(Property p,
                                              MonitorConfig config = {}) {
  config.engine = EngineKind::kCompiled;
  auto m = CreatePropertyMonitor(std::move(p), config);
  EXPECT_NE(dynamic_cast<CompiledEngine*>(m.get()), nullptr)
      << m->property().name;
  return m;
}

std::size_t RunDifferential(const Property& prop, MonitorConfig config,
                            const std::vector<DataplaneEvent>& events,
                            const std::string& label) {
  config.engine = EngineKind::kInterpreted;
  auto interp = CreatePropertyMonitor(prop, config);
  auto comp = MakeCompiled(prop, config);
  for (const DataplaneEvent& ev : events) {
    interp->ProcessEvent(ev);
    comp->ProcessEvent(ev);
  }
  const SimTime end = events.back().time + Duration::Seconds(300);
  interp->AdvanceTime(end);
  comp->AdvanceTime(end);
  ExpectEnginesAgree(*interp, *comp, label);
  return interp->violations().size();
}

// ------------------------------------------------- catalog differential

TEST(CompiledDifferentialTest, WholeCatalogMatchesInterpreterOnFuzzSoup) {
  std::size_t total_violations = 0;
  for (const CatalogEntry& e : BuildCatalog()) {
    ASSERT_TRUE(compiled::CompileProperty(e.property).has_value()) << e.id;
    for (const std::uint64_t seed : {11ull, 29ull}) {
      const auto events = FuzzSeedStream(seed, 1200);
      total_violations += RunDifferential(
          e.property, {}, events,
          std::string(e.id) + " seed=" + std::to_string(seed));
    }
  }
  // The soup must actually exercise the engines, not just tie 0 == 0.
  EXPECT_GT(total_violations, 0u);
}

TEST(CompiledDifferentialTest, Table1PropertiesMatchOnLongerStreams) {
  const std::vector<Property> props = Table1Properties();
  ASSERT_EQ(props.size(), 13u);
  std::size_t total_violations = 0;
  for (const Property& p : props) {
    for (const std::uint64_t seed : {99ull, 123ull}) {
      const auto events = FuzzSeedStream(seed, 2500);
      total_violations += RunDifferential(
          p, {}, events, p.name + " seed=" + std::to_string(seed));
    }
  }
  EXPECT_GT(total_violations, 0u);
}

TEST(CompiledDifferentialTest, EvictionAndProvenanceConfigsStayIdentical) {
  // A bounded instance cap exercises the eviction path; kNone strips
  // bindings from reports. Both must lower identically.
  for (const CatalogEntry& e : BuildCatalog()) {
    const auto events = FuzzSeedStream(43, 900);
    MonitorConfig evicting;
    evicting.eviction = EvictionConfig{}.WithMaxInstances(8);
    RunDifferential(e.property, evicting, events,
                    std::string(e.id) + " max_instances=8");
    MonitorConfig bare;
    bare.provenance = ProvenanceLevel::kNone;
    RunDifferential(e.property, bare, events,
                    std::string(e.id) + " provenance=none");
  }
}

// ------------------------------------------------- SPL round trip

TEST(CompiledRoundTripTest, Table1SerializeParseCompileParity) {
  // Table-1 property → SPL text → parser → compiler must preserve
  // violation behaviour exactly; the interpreter on the *original*
  // property is the oracle.
  const auto events = FuzzSeedStream(7, 1500);
  std::size_t total_violations = 0;
  for (const Property& original : Table1Properties()) {
    const std::string text = SerializeSpl(original);
    const auto parsed = ParseSpl(text);
    ASSERT_TRUE(parsed.ok()) << original.name << ": " << parsed.error;
    ASSERT_TRUE(compiled::CompileProperty(*parsed.property).has_value())
        << original.name;

    MonitorEngine interp(original);
    auto comp = MakeCompiled(*parsed.property);
    for (const DataplaneEvent& ev : events) {
      interp.ProcessEvent(ev);
      comp->ProcessEvent(ev);
    }
    const SimTime end = events.back().time + Duration::Seconds(300);
    interp.AdvanceTime(end);
    comp->AdvanceTime(end);
    ExpectEnginesAgree(interp, *comp, "round-trip " + original.name);
    total_violations += interp.violations().size();
  }
  EXPECT_GT(total_violations, 0u);
}

DataplaneEvent Ev(DataplaneEventType type, std::int64_t ms,
                  std::initializer_list<std::pair<FieldId, std::uint64_t>> kv) {
  DataplaneEvent ev;
  ev.type = type;
  ev.time = SimTime::Zero() + Duration::Millis(ms);
  for (const auto& [k, v] : kv) ev.fields.Set(k, v);
  return ev;
}

// ------------------------------------------------- engine selection

TEST(EngineSelectionTest, CompiledIsTheDefaultAndConfigPicksTheEngine) {
  const Property prop = FirewallReturnNotDropped();

  const MonitorConfig defaults;
  EXPECT_EQ(ResolveEngineKind(prop, defaults), EngineKind::kCompiled);
  EXPECT_NE(dynamic_cast<CompiledEngine*>(
                CreatePropertyMonitor(prop, defaults).get()),
            nullptr);

  MonitorConfig cfg;
  cfg.engine = EngineKind::kInterpreted;
  EXPECT_EQ(ResolveEngineKind(prop, cfg), EngineKind::kInterpreted);
  EXPECT_NE(dynamic_cast<MonitorEngine*>(
                CreatePropertyMonitor(prop, cfg).get()),
            nullptr);
}

TEST(EngineSelectionTest, UnloweredConfigsFallBackToTheInterpreter) {
  const Property prop = FirewallReturnNotDropped();
  MonitorConfig full;
  full.provenance = ProvenanceLevel::kFull;
  EXPECT_EQ(ResolveEngineKind(prop, full), EngineKind::kInterpreted);
  EXPECT_NE(dynamic_cast<MonitorEngine*>(
                CreatePropertyMonitor(prop, full).get()),
            nullptr);

  // 65 stages: one past the 64-bit per-type stage masks.
  PropertyBuilder b("deep", "65 chained stages");
  for (std::uint64_t k = 0; k < 65; ++k)
    b.AddStage("s" + std::to_string(k))
        .Match(PatternBuilder::Arrival().Eq(FieldId::kInPort, k).Build());
  const Property deep = std::move(b).Build();
  EXPECT_EQ(ResolveEngineKind(deep, MonitorConfig{}),
            EngineKind::kInterpreted);
  EXPECT_NE(dynamic_cast<MonitorEngine*>(CreatePropertyMonitor(deep).get()),
            nullptr);
}

/// `n` copies of `item`, joined by `sep`.
std::string Repeat(const std::string& item, const std::string& sep,
                   std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i) out += sep;
    out += item;
  }
  return out;
}

TEST(EngineSelectionTest, OperandCountsPastSixteenBitsCompileExactly) {
  // Instr::aux holds a forbidden group's length and a hash binding's input
  // count. A 16-bit count wrapped 65,536 members to 0 in every pattern the
  // compiler emits — stage, abort and suppressor — and such properties
  // arrive as SPL over swmond's HTTP plane, so they must run compiled and
  // report what the interpreter reports.
  constexpr std::size_t kMembers = 65536;
  const std::string forbids = Repeat("forbid l4_dst == 1;", "\n", kMembers);
  const std::string open_stage =
      "property big {\n  vars A;\n"
      "  stage \"open\" on arrival { match in_port == 1; bind A = ip_src; }\n";
  const std::string drop_stage =
      "  stage \"dropped\" on egress {\n"
      "    match ip_src == $A; match egress_action == drop;\n";
  const auto drop = static_cast<std::uint64_t>(EgressActionValue::kDrop);
  const struct {
    const char* name;
    std::string spl;
    std::vector<DataplaneEvent> events;
    std::size_t violations;  // what the interpreter reports
  } cases[] = {
      // The abort matches (l4_dst != 1 breaks the forbidden group) and
      // discharges the obligation before the drop.
      {"abort",
       open_stage + drop_stage + "    unless on arrival {\n" +
           "      match ip_src == $A;\n" + forbids + "\n    }\n  }\n}\n",
       {Ev(DataplaneEventType::kArrival, 1,
           {{FieldId::kInPort, 1}, {FieldId::kIpSrc, 7}}),
        Ev(DataplaneEventType::kArrival, 2,
           {{FieldId::kInPort, 2}, {FieldId::kIpSrc, 7}, {FieldId::kL4DstPort, 2}}),
        Ev(DataplaneEventType::kEgress, 3,
           {{FieldId::kIpSrc, 7}, {FieldId::kEgressAction, drop}})},
       0},
      // The suppressor records ip_src 7, so the later open never starts
      // an instance.
      {"suppressor",
       open_stage + drop_stage + "  }\n  suppress key (ip_src);\n" +
           "  suppress when on arrival {\n    match in_port == 2;\n" + forbids +
           "\n  } key (ip_src);\n}\n",
       {Ev(DataplaneEventType::kArrival, 1,
           {{FieldId::kInPort, 2}, {FieldId::kIpSrc, 7}, {FieldId::kL4DstPort, 2}}),
        Ev(DataplaneEventType::kArrival, 2,
           {{FieldId::kInPort, 1}, {FieldId::kIpSrc, 7}}),
        Ev(DataplaneEventType::kEgress, 3,
           {{FieldId::kIpSrc, 7}, {FieldId::kEgressAction, drop}})},
       0},
      // The violation reports the hashed binding.
      {"hash binding",
       "property big {\n  vars A;\n  stage \"open\" on arrival {\n"
       "    match in_port == 1;\n    bind A = hash(" +
           Repeat("l4_dst", ", ", kMembers) +
           ") % 1000;\n  }\n"
           "  stage \"dropped\" on egress { match egress_action == drop; }\n}\n",
       {Ev(DataplaneEventType::kArrival, 1,
           {{FieldId::kInPort, 1}, {FieldId::kL4DstPort, 5}}),
        Ev(DataplaneEventType::kEgress, 2, {{FieldId::kEgressAction, drop}})},
       1},
  };
  for (const auto& c : cases) {
    const auto parsed = ParseSpl(c.spl);
    ASSERT_TRUE(parsed.ok()) << c.name << ": " << parsed.error;
    MonitorConfig cfg;
    cfg.engine = EngineKind::kCompiled;
    EXPECT_EQ(ResolveEngineKind(*parsed.property, cfg), EngineKind::kCompiled)
        << c.name;
    MonitorEngine oracle(*parsed.property);
    auto monitor = CreatePropertyMonitor(*parsed.property, cfg);
    for (const DataplaneEvent& ev : c.events) {
      oracle.ProcessEvent(ev);
      monitor->ProcessEvent(ev);
    }
    EXPECT_EQ(oracle.violations().size(), c.violations) << c.name;
    ExpectEnginesAgree(oracle, *monitor, c.name);
  }
}

// ------------------------------------------------- parallel parity

/// Serial interpreted reference that also records the stream-order merge
/// (same idiom as parallel_monitor_test.cpp).
struct SerialReference {
  MonitorSet set;
  std::vector<Violation> merged;
};

std::unique_ptr<SerialReference> RunSerialInterpreted(
    const std::vector<Property>& props,
    const std::vector<DataplaneEvent>& events, SimTime final_advance) {
  auto ref = std::make_unique<SerialReference>();
  MonitorConfig cfg;
  cfg.engine = EngineKind::kInterpreted;
  for (const Property& p : props) ref->set.Add(p, cfg);
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

class CompiledParallelParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompiledParallelParity, CompiledShardsMatchInterpretedSerial) {
  // The strongest cross-engine claim: all 13 Table-1 properties running
  // compiled across N workers produce the same violation streams AND the
  // same merged telemetry snapshot as the serial interpreter.
  const std::size_t workers = GetParam();
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(99, 1500);
  const SimTime end = events.back().time + Duration::Seconds(300);
  const auto serial = RunSerialInterpreted(props, events, end);

  ParallelConfig pcfg;
  pcfg.workers = workers;
  pcfg.batch_capacity = 128;
  ParallelMonitorSet parallel(pcfg);
  MonitorConfig mcfg;
  mcfg.engine = EngineKind::kCompiled;
  for (const Property& p : props) {
    PropertyMonitor& eng = parallel.Add(p, mcfg);
    ASSERT_NE(dynamic_cast<CompiledEngine*>(&eng), nullptr) << p.name;
  }
  parallel.Start();
  for (const DataplaneEvent& ev : events) parallel.OnDataplaneEvent(ev);
  parallel.AdvanceTime(end);
  parallel.Stop();

  const std::string label = "workers=" + std::to_string(workers);
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

  // Counter parity across engines *and* execution modes in one shot. The
  // parallel snapshot's runtime-only monitor.parallel.* metrics have no
  // serial counterpart, and the compiled engines' monitor.compiled.* probe
  // telemetry has no interpreter counterpart; both sit outside the parity
  // contract.
  const telemetry::Snapshot sa = serial->set.TelemetrySnapshot();
  const telemetry::Snapshot sb = parallel.TelemetrySnapshot();
  std::size_t sb_shared = 0;
  for (const auto& [name, sample] : sb.samples())
    if (name.rfind("monitor.parallel.", 0) != 0 &&
        name.rfind("monitor.compiled.", 0) != 0)
      ++sb_shared;
  for (const auto& [name, sample] : sa.samples()) {
    ASSERT_TRUE(sb.Has(name)) << label << " missing " << name;
    EXPECT_TRUE(sample == sb.samples().at(name)) << label << " at " << name;
  }
  EXPECT_EQ(sa.size(), sb_shared) << label;
}

INSTANTIATE_TEST_SUITE_P(Workers, CompiledParallelParity,
                         ::testing::Values(1u, 2u, 4u));

// ------------------------------------------------- hot-path regressions

/// Loads a daemon-text-protocol repro stream from tests/data/, falling
/// back to `inline_events` when the checked-in file is not reachable from
/// the build tree's cwd. When the file *is* found it is authoritative: the
/// minimized repro the bug report documents.
std::vector<DataplaneEvent> LoadReproStream(
    const std::string& filename, std::vector<DataplaneEvent> inline_events) {
  for (const std::string prefix : {"tests/data/", "../tests/data/"}) {
    std::ifstream in(prefix + filename);
    if (!in.is_open()) continue;
    std::vector<DataplaneEvent> events;
    std::string line;
    while (std::getline(in, line)) {
      DataplaneEvent ev;
      std::string error;
      if (ParseEventLine(line, ev, &error)) {
        events.push_back(std::move(ev));
      } else {
        EXPECT_TRUE(error.empty()) << filename << ": " << error;
      }
    }
    EXPECT_EQ(events.size(), inline_events.size()) << filename;
    return events;
  }
  return inline_events;
}

TEST(RegressionTest, AbsentLinkFieldStillAdvances) {
  // An allow_absent EqVar condition must not serve as a link key: a keyed
  // lookup projects the event's field values, so an egress *lacking*
  // ip_dst could never reach the instance the condition nonetheless
  // matches. The buggy interpreter missed this violation entirely.
  PropertyBuilder b("regress-absent-link",
                    "egress to A, or with no ip_dst at all");
  const VarId A = b.Var("A");
  b.AddStage("arrival binds A")
      .Match(PatternBuilder::Arrival().Build())
      .Bind(A, FieldId::kIpSrc);
  Pattern absent_or_match;
  absent_or_match.event_type = DataplaneEventType::kEgress;
  absent_or_match.conditions.push_back({FieldId::kIpDst, CmpOp::kEq,
                                        Term::Var(A), ~std::uint64_t{0},
                                        /*allow_absent=*/true});
  b.AddStage("egress lacking or matching dst").Match(std::move(absent_or_match));
  const Property prop = std::move(b).Build();

  const auto events = LoadReproStream(
      "regress_absent_link.events",
      {Ev(DataplaneEventType::kArrival, 1, {{FieldId::kIpSrc, 5}}),
       Ev(DataplaneEventType::kEgress, 2, {{FieldId::kInPort, 7}})});

  MonitorEngine interp(prop);
  auto comp = MakeCompiled(prop);
  for (const DataplaneEvent& ev : events) {
    interp.ProcessEvent(ev);
    comp->ProcessEvent(ev);
  }
  ExpectEnginesAgree(interp, *comp, "absent-link");

  ASSERT_EQ(interp.violations().size(), 1u);  // the buggy engine found 0
  const Violation& v = interp.violations()[0];
  EXPECT_EQ(v.property, "regress-absent-link");
  ASSERT_EQ(v.bindings.size(), 1u);
  EXPECT_EQ(v.bindings[0].first, "A");
  EXPECT_EQ(v.bindings[0].second, 5u);
}

TEST(RegressionTest, RebindRefilesUnderTheNewKey) {
  // A stage that rebinds its own link variable must be unfiled under the
  // OLD environment before the bindings commit. The buggy interpreter
  // removed afterwards — computing a key the store never saw — so a stale
  // entry lingered under the old key and soaked up candidate checks the
  // matching events could no longer cash in.
  PropertyBuilder b("regress-rebind-link", "two egress hops re-keying A");
  const VarId A = b.Var("A");
  b.AddStage("arrival binds A")
      .Match(PatternBuilder::Arrival().Build())
      .Bind(A, FieldId::kIpSrc);
  b.AddStage("two egresses via A, rebinding")
      .Match(PatternBuilder::Egress().EqVar(FieldId::kIpSrc, A).Build())
      .Bind(A, FieldId::kIpDst)
      .Count(2);
  const Property prop = std::move(b).Build();

  const auto events = LoadReproStream(
      "regress_rebind_link.events",
      {Ev(DataplaneEventType::kArrival, 1, {{FieldId::kIpSrc, 1}}),
       Ev(DataplaneEventType::kEgress, 2,
          {{FieldId::kIpSrc, 1}, {FieldId::kIpDst, 2}}),
       Ev(DataplaneEventType::kEgress, 3,
          {{FieldId::kIpSrc, 1}, {FieldId::kIpDst, 9}}),
       Ev(DataplaneEventType::kEgress, 4,
          {{FieldId::kIpSrc, 2}, {FieldId::kIpDst, 3}})});

  MonitorEngine interp(prop);
  auto comp = MakeCompiled(prop);
  for (const DataplaneEvent& ev : events) {
    interp.ProcessEvent(ev);
    comp->ProcessEvent(ev);
  }
  ExpectEnginesAgree(interp, *comp, "rebind-link");

  ASSERT_EQ(interp.violations().size(), 1u);
  const Violation& v = interp.violations()[0];
  ASSERT_EQ(v.bindings.size(), 1u);
  EXPECT_EQ(v.bindings[0].first, "A");
  EXPECT_EQ(v.bindings[0].second, 3u);  // rebound on the completing match
  // Events 2 and 4 each reach the live instance through the keyed store;
  // event 3 (old key, post-rebind) must find an empty bucket. The buggy
  // engine's stale entry made this 3.
  EXPECT_EQ(EngineStat(interp, "candidate_checks"), 2u);
  EXPECT_EQ(EngineStat(*comp, "candidate_checks"), 2u);
}

// ------------------------------------------------- abort-shape matrix
//
// Indexed aborts (DESIGN.md 5m): a prefilter plus a keyed probe replace
// the per-instance walk. Each shape below runs through the interpreter,
// the compiled engine and the forced-linear interpreter on fuzz soups; the
// first two must agree on violations and every counter (candidate_checks
// included), the linear store on violations and live state. The
// hand-written streams pin what the index buys: which instances are
// candidates at all.

Pattern WithCondition(Pattern p, Condition c) {
  p.conditions.push_back(c);
  return p;
}

Condition MaskedEqVar(FieldId f, VarId var, std::uint64_t mask) {
  Condition c;
  c.field = f;
  c.rhs = Term::Var(var);
  c.mask = mask;
  return c;
}

Condition EqVarOrAbsent(FieldId f, VarId var) {
  Condition c;
  c.field = f;
  c.rhs = Term::Var(var);
  c.allow_absent = true;
  return c;
}

/// The ftp-data-port shape: the abort keys (C,S) by (ip_src, ip_dst), the
/// stage link keys the same vars by (ip_dst, ip_src).
Property FtpShape() {
  PropertyBuilder b("shape-ftp", "abort keyed like the link, permuted");
  const VarId C = b.Var("C"), S = b.Var("S"), D = b.Var("D");
  b.AddStage("announce")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kFtpMsgKind, 1).Build())
      .Bind(C, FieldId::kIpSrc)
      .Bind(S, FieldId::kIpDst)
      .Bind(D, FieldId::kFtpDataPort);
  b.AddStage("data to another port")
      .Match(PatternBuilder::Arrival()
                 .Eq(FieldId::kIpProto, 6)
                 .EqVar(FieldId::kIpSrc, S)
                 .EqVar(FieldId::kIpDst, C)
                 .NeVar(FieldId::kL4DstPort, D)
                 .Build())
      .AbortOn(PatternBuilder::Arrival()
                   .Eq(FieldId::kFtpMsgKind, 1)
                   .EqVar(FieldId::kIpSrc, C)
                   .EqVar(FieldId::kIpDst, S)
                   .Build());
  return std::move(b).Build();
}

/// The dhcp-reply-deadline shape: a timeout stage whose two aborts share
/// one abort-only index over (M, X).
Property DhcpShape() {
  PropertyBuilder b("shape-dhcp", "timeout stage with its own abort key");
  const VarId M = b.Var("M"), X = b.Var("X");
  b.AddStage("request")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kDhcpMsgType, 3).Build())
      .Bind(M, FieldId::kDhcpChaddr)
      .Bind(X, FieldId::kDhcpXid)
      .Window(Duration::Millis(200));
  b.AddTimeoutStage("no answer")
      .AbortOn(PatternBuilder::Egress()
                   .Eq(FieldId::kDhcpMsgType, 5)
                   .EqVar(FieldId::kDhcpChaddr, M)
                   .EqVar(FieldId::kDhcpXid, X)
                   .Build())
      .AbortOn(PatternBuilder::Egress()
                   .Eq(FieldId::kDhcpMsgType, 6)
                   .EqVar(FieldId::kDhcpXid, X)
                   .EqVar(FieldId::kDhcpChaddr, M)
                   .Build());
  return std::move(b).Build();
}

/// Masked and allow_absent EqVar terms are checked, never keyed: the first
/// abort keys on B alone (the link's var list), the second has no keyable
/// term and walks.
Property UnkeyableTermShape() {
  PropertyBuilder b("shape-unkeyable", "masked / allow_absent abort terms");
  const VarId A = b.Var("A"), B = b.Var("B");
  b.AddStage("open")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kInPort, 1).Build())
      .Bind(A, FieldId::kIpSrc)
      .Bind(B, FieldId::kIpDst);
  b.AddStage("reply dropped")
      .Match(
          PatternBuilder::Egress().EqVar(FieldId::kIpSrc, B).Dropped().Build())
      .AbortOn(WithCondition(
          PatternBuilder::Arrival().EqVar(FieldId::kIpDst, B).Build(),
          MaskedEqVar(FieldId::kIpSrc, A, 0x6)))
      .AbortOn(WithCondition(
          PatternBuilder::Arrival().Eq(FieldId::kInPort, 3).Build(),
          EqVarOrAbsent(FieldId::kIpSrc, A)));
  return std::move(b).Build();
}

/// The stage-1 abort keys on X, which stage 1 itself binds: instances
/// waiting at stage 1 never have it bound, so they are never candidates.
/// The stage-2 abort on the same var finds them.
Property LateBoundVarShape() {
  PropertyBuilder b("shape-late-var", "abort var bound at a later stage");
  const VarId A = b.Var("A"), X = b.Var("X");
  b.AddStage("start")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kInPort, 1).Build())
      .Bind(A, FieldId::kIpSrc);
  b.AddStage("bind X")
      .Match(PatternBuilder::Arrival().EqVar(FieldId::kIpDst, A).Build())
      .Bind(X, FieldId::kL4SrcPort)
      .AbortOn(PatternBuilder::Egress().EqVar(FieldId::kL4SrcPort, X).Build());
  b.AddStage("finish")
      .Match(PatternBuilder::Egress().EqVar(FieldId::kIpSrc, A).Build())
      .AbortOn(PatternBuilder::Egress().EqVar(FieldId::kL4SrcPort, X).Build());
  return std::move(b).Build();
}

/// Two keyed aborts whose probes can land on one instance (the
/// fw-until-close shape): the instance is one candidate, not two.
Property TwoAbortsShape() {
  PropertyBuilder b("shape-two-aborts", "two aborts, one instance");
  const VarId A = b.Var("A"), B = b.Var("B");
  b.AddStage("open")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kInPort, 1).Build())
      .Bind(A, FieldId::kIpSrc)
      .Bind(B, FieldId::kIpDst);
  b.AddStage("return dropped")
      .Match(PatternBuilder::Egress()
                 .EqVar(FieldId::kIpSrc, B)
                 .EqVar(FieldId::kIpDst, A)
                 .Dropped()
                 .Build())
      .AbortOn(PatternBuilder::Arrival()
                   .EqVar(FieldId::kIpSrc, A)
                   .EqVar(FieldId::kIpDst, B)
                   .Eq(FieldId::kIpProto, 6)
                   .Build())
      .AbortOn(PatternBuilder::Arrival()
                   .EqVar(FieldId::kIpSrc, B)
                   .EqVar(FieldId::kIpDst, A)
                   .Eq(FieldId::kInPort, 2)
                   .Build());
  return std::move(b).Build();
}

/// A link-down abort with only constant conditions: the stage-wide walk.
Property ConstOnlyShape() {
  PropertyBuilder b("shape-const-only", "constant-only abort");
  const VarId D = b.Var("D");
  b.AddStage("learned")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kInPort, 1).Build())
      .Bind(D, FieldId::kEthSrc);
  b.AddStage("flooded")
      .Match(PatternBuilder::Egress()
                 .EqVar(FieldId::kEthDst, D)
                 .Flooded()
                 .Build())
      .AbortOn(PatternBuilder::LinkStatus().Eq(FieldId::kLinkUp, 0).Build());
  return std::move(b).Build();
}

/// A Count(3) stage that rebinds its abort's key var B on every match: the
/// abort index must be re-keyed each time (B is not a link var, so the
/// abort has its own index).
Property RebindCountShape() {
  PropertyBuilder b("shape-rebind-count", "rebinding Count(n) with abort");
  const VarId A = b.Var("A"), B = b.Var("B");
  b.AddStage("open")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kInPort, 1).Build())
      .Bind(A, FieldId::kIpSrc)
      .Bind(B, FieldId::kIpDst);
  b.AddStage("three hops")
      .Match(PatternBuilder::Egress().EqVar(FieldId::kIpSrc, A).Build())
      .Bind(B, FieldId::kIpDst)
      .Count(3)
      .AbortOn(PatternBuilder::Arrival()
                   .Eq(FieldId::kInPort, 2)
                   .EqVar(FieldId::kIpDst, B)
                   .Build());
  return std::move(b).Build();
}

std::vector<Property> AbortShapes() {
  return {FtpShape(),        DhcpShape(),      UnkeyableTermShape(),
          LateBoundVarShape(), TwoAbortsShape(), ConstOnlyShape(),
          RebindCountShape()};
}

struct ShapeRun {
  std::uint64_t checks = 0;   // candidate_checks
  std::uint64_t aborted = 0;  // instances_aborted
};

/// Interpreter, compiled engine and forced-linear interpreter over one
/// stream; returns the interpreter's (= the compiled engine's) counts.
ShapeRun RunAbortShape(const Property& prop,
                       const std::vector<DataplaneEvent>& events,
                       const std::string& label) {
  MonitorEngine interp(prop);
  auto comp = MakeCompiled(prop);
  InterpreterAblation linear_store;
  linear_store.force_linear_store = true;
  MonitorEngine linear(prop, MonitorConfig{}, linear_store);
  for (const DataplaneEvent& ev : events) {
    interp.ProcessEvent(ev);
    comp->ProcessEvent(ev);
    linear.ProcessEvent(ev);
  }
  ExpectEnginesAgree(interp, *comp, label);
  EXPECT_EQ(interp.live_instances(), linear.live_instances()) << label;
  EXPECT_EQ(EngineStat(interp, "instances_aborted"),
            EngineStat(linear, "instances_aborted"))
      << label;
  EXPECT_EQ(interp.violations().size(), linear.violations().size()) << label;
  EXPECT_LE(EngineStat(interp, "candidate_checks"),
            EngineStat(linear, "candidate_checks"))
      << label;
  return {EngineStat(interp, "candidate_checks"),
          EngineStat(interp, "instances_aborted")};
}

TEST(AbortShapeTest, EveryShapeAgreesAcrossEnginesOnFuzzSoup) {
  std::uint64_t aborted = 0;
  for (const Property& prop : AbortShapes()) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 7u}) {
      const auto events = FuzzSeedStream(seed, 3000);
      const std::string label = prop.name + " seed " + std::to_string(seed);
      aborted += RunAbortShape(prop, events, label).aborted;
      RunDifferential(prop, MonitorConfig{}, events, label + " +horizon");
    }
  }
  EXPECT_GT(aborted, 0u);  // the soup exercises the aborts at all
}

TEST(AbortShapeTest, PermutedLinkKeyProbesOneInstance) {
  using T = DataplaneEventType;
  std::vector<DataplaneEvent> events;
  // 40 live announcements, then a superseding PORT for one of them.
  for (std::uint64_t c = 0; c < 40; ++c)
    events.push_back(Ev(T::kArrival, static_cast<std::int64_t>(c),
                        {{FieldId::kFtpMsgKind, 1},
                         {FieldId::kIpSrc, 100 + c},
                         {FieldId::kIpDst, 7},
                         {FieldId::kFtpDataPort, 5000}}));
  events.push_back(Ev(T::kArrival, 50,
                      {{FieldId::kFtpMsgKind, 1},
                       {FieldId::kIpSrc, 105},
                       {FieldId::kIpDst, 7},
                       {FieldId::kFtpDataPort, 6000}}));
  // Not a PORT: fails the prefilter, touches no instance.
  events.push_back(Ev(T::kArrival, 51,
                      {{FieldId::kFtpMsgKind, 2},
                       {FieldId::kIpSrc, 106},
                       {FieldId::kIpDst, 7}}));
  const ShapeRun run = RunAbortShape(FtpShape(), events, "ftp");
  EXPECT_EQ(run.checks, 1u);  // the walk would have examined all 40
  EXPECT_EQ(run.aborted, 1u);
}

TEST(AbortShapeTest, TimeoutStageAbortUsesItsOwnIndex) {
  using T = DataplaneEventType;
  std::vector<DataplaneEvent> events;
  for (std::uint64_t m = 0; m < 30; ++m)
    events.push_back(Ev(T::kArrival, static_cast<std::int64_t>(m),
                        {{FieldId::kDhcpMsgType, 3},
                         {FieldId::kDhcpChaddr, m},
                         {FieldId::kDhcpXid, 9}}));
  // An egress without a DHCP type never reaches the store; a NAK for one
  // client probes one bucket.
  events.push_back(Ev(T::kEgress, 40, {{FieldId::kIpSrc, 1}}));
  events.push_back(Ev(T::kEgress, 41,
                      {{FieldId::kDhcpMsgType, 6},
                       {FieldId::kDhcpChaddr, 4},
                       {FieldId::kDhcpXid, 9}}));
  const ShapeRun run = RunAbortShape(DhcpShape(), events, "dhcp");
  EXPECT_EQ(run.checks, 1u);
  EXPECT_EQ(run.aborted, 1u);
}

TEST(AbortShapeTest, UnboundKeyVarIsNeverACandidate) {
  using T = DataplaneEventType;
  const std::vector<DataplaneEvent> events = {
      Ev(T::kArrival, 1, {{FieldId::kInPort, 1}, {FieldId::kIpSrc, 4}}),
      // Stage-1 abort: X is unbound at stage 1, so no candidate.
      Ev(T::kEgress, 2, {{FieldId::kL4SrcPort, 80}}),
      Ev(T::kArrival, 3, {{FieldId::kIpDst, 4}, {FieldId::kL4SrcPort, 80}}),
      // Stage-2 abort: X = 80 is bound now.
      Ev(T::kEgress, 4, {{FieldId::kL4SrcPort, 80}})};
  // One advance candidate (event 3) plus one abort candidate (event 4).
  const ShapeRun run = RunAbortShape(LateBoundVarShape(), events, "late-var");
  EXPECT_EQ(run.checks, 2u);
  EXPECT_EQ(run.aborted, 1u);
}

TEST(AbortShapeTest, TwoAbortsOnOneInstanceCountItOnce) {
  using T = DataplaneEventType;
  const std::vector<DataplaneEvent> events = {
      Ev(T::kArrival, 1,
         {{FieldId::kInPort, 1}, {FieldId::kIpSrc, 5}, {FieldId::kIpDst, 5}}),
      // src == dst: both aborts survive the prefilter and both probes land
      // on the one instance.
      Ev(T::kArrival, 2,
         {{FieldId::kInPort, 2},
          {FieldId::kIpProto, 6},
          {FieldId::kIpSrc, 5},
          {FieldId::kIpDst, 5}})};
  const ShapeRun run = RunAbortShape(TwoAbortsShape(), events, "two-aborts");
  EXPECT_EQ(run.checks, 1u);
  EXPECT_EQ(run.aborted, 1u);
}

TEST(AbortShapeTest, ConstantOnlyAbortWalksTheStage) {
  using T = DataplaneEventType;
  std::vector<DataplaneEvent> events;
  for (std::uint64_t d = 0; d < 12; ++d)
    events.push_back(Ev(T::kArrival, static_cast<std::int64_t>(d),
                        {{FieldId::kInPort, 1}, {FieldId::kEthSrc, d}}));
  // Link up fails the prefilter; link down walks the stage.
  events.push_back(Ev(T::kLinkStatus, 20, {{FieldId::kLinkUp, 1}}));
  events.push_back(Ev(T::kLinkStatus, 21, {{FieldId::kLinkUp, 0}}));
  const ShapeRun run = RunAbortShape(ConstOnlyShape(), events, "const-only");
  EXPECT_EQ(run.checks, 12u);
  EXPECT_EQ(run.aborted, 12u);
}

TEST(AbortShapeTest, RebindReKeysTheAbortIndex) {
  using T = DataplaneEventType;
  const std::vector<DataplaneEvent> events = {
      Ev(T::kArrival, 1,
         {{FieldId::kInPort, 1}, {FieldId::kIpSrc, 1}, {FieldId::kIpDst, 10}}),
      // First of three hops: B rebinds 10 -> 20.
      Ev(T::kEgress, 2, {{FieldId::kIpSrc, 1}, {FieldId::kIpDst, 20}}),
      // Keyed on the old B: must find nothing.
      Ev(T::kArrival, 3, {{FieldId::kInPort, 2}, {FieldId::kIpDst, 10}}),
      // Keyed on the new B: aborts. An index still filed under B = 10
      // would miss it, and the two hops below would then violate.
      Ev(T::kArrival, 4, {{FieldId::kInPort, 2}, {FieldId::kIpDst, 20}}),
      Ev(T::kEgress, 5, {{FieldId::kIpSrc, 1}, {FieldId::kIpDst, 30}}),
      Ev(T::kEgress, 6, {{FieldId::kIpSrc, 1}, {FieldId::kIpDst, 40}})};
  // Advance candidate at event 2, abort candidate at event 4; the engines
  // agree on the violations, so none in the interpreter means none at all.
  const ShapeRun run = RunAbortShape(RebindCountShape(), events, "rebind");
  EXPECT_EQ(run.checks, 2u);
  EXPECT_EQ(run.aborted, 1u);
  MonitorEngine interp(RebindCountShape());
  for (const DataplaneEvent& ev : events) interp.ProcessEvent(ev);
  EXPECT_TRUE(interp.violations().empty());
}

// ------------------------------------------------- bytecode sanity

TEST(BytecodeTest, DisassemblyNamesEveryStage) {
  // Smoke for the debugging surface: one line per instruction, stage labels
  // and the interest mask present.
  const auto program = compiled::CompileProperty(FirewallReturnNotDropped());
  ASSERT_TRUE(program.has_value());
  const std::string text = compiled::Disassemble(*program);
  EXPECT_NE(text.find("fw-return-not-dropped"), std::string::npos);
  EXPECT_NE(text.find("match"), std::string::npos);
  EXPECT_NE(text.find("bind"), std::string::npos);
}

std::string F(FieldId f) { return "f" + std::to_string(static_cast<int>(f)); }

std::string Need(std::initializer_list<FieldId> fields) {
  std::uint64_t need = 0;
  for (FieldId f : fields) need |= std::uint64_t{1} << static_cast<int>(f);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "need=0x%llx",
                static_cast<unsigned long long>(need));
  return buf;
}

TEST(BytecodeTest, DisassemblyNamesEachAbortsIndex) {
  // One line per abort: its key tuple in var order (each var with the
  // field its probe projects) and which index serves it, or the walk; then
  // the prefilter's presence mask.
  using FI = FieldId;
  const struct {
    Property prop;
    std::string line;
  } cases[] = {
      {FtpShape(), "key (C=" + F(FI::kIpSrc) + ",S=" + F(FI::kIpDst) +
                       ") via link index " +
                       Need({FI::kFtpMsgKind, FI::kIpSrc, FI::kIpDst})},
      {DhcpShape(), "abort 1 @"},
      {DhcpShape(), "key (M=" + F(FI::kDhcpChaddr) + ",X=" + F(FI::kDhcpXid) +
                        ") via abort index 0 " +
                        Need({FI::kDhcpMsgType, FI::kDhcpXid,
                              FI::kDhcpChaddr})},
      {UnkeyableTermShape(), "key (B=" + F(FI::kIpDst) + ") via link index " +
                                 Need({FI::kIpDst, FI::kIpSrc})},
      {UnkeyableTermShape(),
       "scan (no keyable EqVar) " + Need({FI::kInPort})},
      {LateBoundVarShape(), "key (X=" + F(FI::kL4SrcPort) +
                                ") via abort index 0 " +
                                Need({FI::kL4SrcPort}) + " prefilter=none"},
      {TwoAbortsShape(), "key (A=" + F(FI::kIpDst) + ",B=" + F(FI::kIpSrc) +
                             ") via link index " +
                             Need({FI::kIpSrc, FI::kIpDst, FI::kInPort})},
      {ConstOnlyShape(), "scan (no keyable EqVar) " + Need({FI::kLinkUp})},
      {RebindCountShape(), "key (B=" + F(FI::kIpDst) + ") via abort index 0 " +
                               Need({FI::kInPort, FI::kIpDst})},
  };
  for (const auto& c : cases) {
    const auto program = compiled::CompileProperty(c.prop);
    ASSERT_TRUE(program.has_value());
    const std::string text = compiled::Disassemble(*program);
    EXPECT_NE(text.find(c.line), std::string::npos)
        << c.prop.name << ": missing \"" << c.line << "\" in\n"
        << text;
  }
}

}  // namespace
}  // namespace swmon
