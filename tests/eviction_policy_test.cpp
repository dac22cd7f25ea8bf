// Bounded-memory eviction: policy semantics, engine bit-identity, sharded
// parity, and recall against the unbounded oracle on the adversarial
// state-exhaustion streams. Carries the `adversarial` label (the CI step
// `ctest -L adversarial` runs exactly this family) and `tsan` (the sharded
// parity case crosses the parallel merge).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "monitor/eviction.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "monitor/property_builder.hpp"
#include "monitor/property_monitor.hpp"
#include "properties/catalog.hpp"
#include "telemetry/snapshot.hpp"
#include "workload/adversarial/adversarial.hpp"
#include "workload/scenario_registry.hpp"

namespace swmon {
namespace {

const std::vector<EvictionPolicy> kAllPolicies = {
    EvictionPolicy::kCreationOrder, EvictionPolicy::kLru,
    EvictionPolicy::kRandom, EvictionPolicy::kTimeoutPriority};

// ------------------------------------------------------------- config API

TEST(EvictionConfigTest, ParseSpec) {
  EvictionConfig cfg;
  std::string err;
  ASSERT_TRUE(ParseEvictionSpec("lru:512", &cfg, &err)) << err;
  EXPECT_EQ(cfg.policy, EvictionPolicy::kLru);
  EXPECT_EQ(cfg.max_instances, 512u);
  EXPECT_EQ(cfg.max_state_bytes, 0u);

  ASSERT_TRUE(ParseEvictionSpec("timeout-priority:0:65536", &cfg, &err))
      << err;
  EXPECT_EQ(cfg.policy, EvictionPolicy::kTimeoutPriority);
  EXPECT_EQ(cfg.max_instances, 0u);
  EXPECT_EQ(cfg.max_state_bytes, 65536u);

  // Aliases and bare policies parse; garbage does not.
  EXPECT_TRUE(ParseEvictionSpec("creation:4", &cfg, &err));
  EXPECT_TRUE(ParseEvictionSpec("timeout:4", &cfg, &err));
  EXPECT_TRUE(ParseEvictionSpec("random:4", &cfg, &err));
  EXPECT_FALSE(ParseEvictionSpec("mru:4", &cfg, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(ParseEvictionSpec("lru:x", &cfg, &err));
  EXPECT_FALSE(ParseEvictionSpec("", &cfg, &err));
}

TEST(EvictionConfigTest, PolicyNamesRoundTrip) {
  for (const EvictionPolicy p : kAllPolicies) {
    EvictionPolicy parsed;
    ASSERT_TRUE(ParseEvictionPolicy(EvictionPolicyName(p), &parsed))
        << EvictionPolicyName(p);
    EXPECT_EQ(parsed, p);
  }
}

TEST(EvictionConfigTest, ByteCapTranslatesThroughModelBytes) {
  const std::size_t per = ModelInstanceBytes(4);
  EvictionState st;
  st.Configure(EvictionConfig{}.WithMaxStateBytes(10 * per + per / 2), 4);
  EXPECT_TRUE(st.enabled());
  EXPECT_EQ(st.cap(), 10u);
  EXPECT_TRUE(st.bytes_bound());

  // Instance cap tighter than the byte cap -> capacity-bound.
  st.Configure(EvictionConfig{}
                   .WithMaxInstances(3)
                   .WithMaxStateBytes(100 * per),
               4);
  EXPECT_EQ(st.cap(), 3u);
  EXPECT_FALSE(st.bytes_bound());
}

TEST(EvictionConfigTest, PropertyBuilderCarriesEvictionSetters) {
  PropertyBuilder b("capped", "builder-scoped eviction knobs");
  b.AddStage("s0").Match(
      PatternBuilder::Arrival().Eq(FieldId::kInPort, 1).Build());
  b.AddStage("s1").Match(PatternBuilder::Egress().Dropped().Build());
  b.EvictionPolicyIs(EvictionPolicy::kTimeoutPriority)
      .MaxInstances(12)
      .MaxStateBytes(4096)
      .EvictionSeed(9);
  const EvictionConfig e = b.eviction();
  EXPECT_TRUE(e.enabled());
  EXPECT_EQ(e.policy, EvictionPolicy::kTimeoutPriority);
  EXPECT_EQ(e.max_instances, 12u);
  EXPECT_EQ(e.max_state_bytes, 4096u);
  EXPECT_EQ(e.seed, 9u);

  // Feeds straight into an attachment config.
  const MonitorConfig cfg = MonitorConfig{}.WithEviction(e);
  EXPECT_TRUE(cfg.eviction.enabled());
  EXPECT_EQ(cfg.eviction.max_instances, 12u);
}

// --------------------------------------------------- victim-order semantics

TEST(EvictionStateTest, PolicyVictimOrder) {
  // Creation order: smallest id regardless of touches.
  EvictionState st;
  st.Configure(EvictionConfig{}.WithMaxInstances(2), 1);
  st.OnCreate(10, 100, 1);
  st.OnCreate(11, 101, 2);
  st.OnTouch(10, 3);
  EXPECT_EQ(st.PickVictim().id, 10u);

  // LRU: the touch moves 10 behind 11.
  EvictionState lru;
  lru.Configure(
      EvictionConfig{}.WithPolicy(EvictionPolicy::kLru).WithMaxInstances(2),
      1);
  lru.OnCreate(10, 100, 1);
  lru.OnCreate(11, 101, 2);
  lru.OnTouch(10, 3);
  EXPECT_EQ(lru.PickVictim().id, 11u);

  // Timeout priority: furthest deadline first; no deadline = furthest;
  // ties break to the smallest id.
  EvictionState tp;
  tp.Configure(EvictionConfig{}
                   .WithPolicy(EvictionPolicy::kTimeoutPriority)
                   .WithMaxInstances(3),
               1);
  tp.OnCreate(1, 0, 1);
  tp.OnCreate(2, 0, 2);
  tp.OnCreate(3, 0, 3);
  tp.OnDeadline(1, 1'000);   // nearest deadline — most worth keeping
  tp.OnDeadline(2, 9'000);
  EXPECT_EQ(tp.PickVictim().id, 3u);  // deadline-free goes first
  tp.OnDestroy(3);
  EXPECT_EQ(tp.PickVictim().id, 2u);
  tp.OnDestroy(2);
  EXPECT_EQ(tp.PickVictim().id, 1u);
}

TEST(EvictionStateTest, RandomIsDeterministicFromSeed) {
  const auto run = [](std::uint64_t seed) {
    EvictionState st;
    st.Configure(EvictionConfig{}
                     .WithPolicy(EvictionPolicy::kRandom)
                     .WithMaxInstances(4)
                     .WithSeed(seed),
                 1);
    for (std::uint64_t id = 1; id <= 32; ++id) st.OnCreate(id, id, id);
    std::vector<std::uint64_t> order;
    for (int i = 0; i < 8; ++i) {
      const auto v = st.PickVictim();
      order.push_back(v.id);
      st.OnDestroy(v.id);
    }
    return order;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ----------------------------------------------- engine bit-identity

/// Random event soup matching telemetry_parity_test's: enough field
/// collisions that instances chain, arm timers, refresh, and evict.
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

/// Runs `events` through one engine kind and returns it, time advanced
/// past every deadline.
std::unique_ptr<PropertyMonitor> RunEngine(const Property& p,
                                           MonitorConfig cfg, EngineKind kind,
                                           const std::vector<DataplaneEvent>& events,
                                           SimTime horizon) {
  cfg.engine = kind;
  auto m = CreatePropertyMonitor(p, cfg);
  for (const DataplaneEvent& ev : events) m->ProcessEvent(ev);
  m->AdvanceTime(horizon);
  return m;
}

/// Observational bit-identity: every violation field (including instance
/// ids) and every engine-neutral telemetry sample must agree.
std::uint64_t ExpectEnginesIdentical(const Property& p,
                                     const MonitorConfig& cfg,
                                     const std::vector<DataplaneEvent>& events,
                                     SimTime horizon,
                                     const std::string& what) {
  const auto interp =
      RunEngine(p, cfg, EngineKind::kInterpreted, events, horizon);
  const auto compiled =
      RunEngine(p, cfg, EngineKind::kCompiled, events, horizon);

  const auto& vi = interp->violations();
  const auto& vc = compiled->violations();
  EXPECT_EQ(vi.size(), vc.size()) << what;
  if (vi.size() != vc.size()) return 0;
  for (std::size_t i = 0; i < vi.size(); ++i) {
    EXPECT_EQ(vi[i].instance_id, vc[i].instance_id) << what << " #" << i;
    EXPECT_EQ(vi[i].time.nanos(), vc[i].time.nanos()) << what << " #" << i;
    EXPECT_EQ(vi[i].trigger_stage_index, vc[i].trigger_stage_index)
        << what << " #" << i;
    EXPECT_EQ(vi[i].bindings, vc[i].bindings) << what << " #" << i;
  }

  telemetry::Snapshot si, sc;
  interp->CollectInto(si, "e");
  compiled->CollectInto(sc, "e");
  for (const auto& [name, sample] : si.samples()) {
    EXPECT_TRUE(sc.Has(name)) << what << " compiled missing " << name;
    if (sc.Has(name)) {
      EXPECT_TRUE(sample == sc.samples().at(name)) << what << " at " << name;
    }
  }
  // (monitor.compiled.* extras are allowed; everything else must exist in
  // both and match — the loop above covers the interpreted set, and the
  // eviction counters/gauges are all in it.)
  return si.counter("monitor.engine.e.instances_evicted");
}

TEST(EvictionEngineParity, BitIdenticalOnFuzzSoupUnderEveryPolicy) {
  const auto events = EventSoup(/*seed=*/4242, /*count=*/1500);
  const SimTime horizon = events.back().time + Duration::Seconds(300);
  std::uint64_t evicted = 0;  // some properties never exceed a cap of 4;
                              // the soup must trip eviction somewhere
  for (const CatalogEntry& e : BuildCatalog()) {
    if (!e.in_table1) continue;
    for (const EvictionPolicy policy : kAllPolicies) {
      MonitorConfig cfg;
      cfg.eviction =
          EvictionConfig{}.WithPolicy(policy).WithMaxInstances(4);
      evicted += ExpectEnginesIdentical(e.property, cfg, events, horizon,
                                        std::string(e.id) + "/" +
                                            EvictionPolicyName(policy));
    }
  }
  EXPECT_GT(evicted, 0u);
}

TEST(EvictionEngineParity, BitIdenticalUnderByteCap) {
  // The evasion flood guarantees live-instance pressure, so a byte cap
  // sized for ~24 instances must evict — and bit-identically so.
  const AdversarialStream stream = FirewallEvasionStream({});
  const std::size_t nv = stream.property.num_vars();
  std::uint64_t evicted = 0;
  for (const EvictionPolicy policy : kAllPolicies) {
    MonitorConfig cfg;
    cfg.eviction = EvictionConfig{}.WithPolicy(policy).WithMaxStateBytes(
        24 * ModelInstanceBytes(nv));
    evicted +=
        ExpectEnginesIdentical(stream.property, cfg, stream.events,
                               stream.horizon,
                               std::string("bytecap/") +
                                   EvictionPolicyName(policy));
  }
  EXPECT_GT(evicted, 0u);
}

TEST(EvictionEngineParity, BitIdenticalOnAdversarialStreams) {
  for (const std::string& name : AdversarialStreamNames()) {
    AdversarialParams ap;
    ap.attackers = 96;
    ap.victims = 6;
    const AdversarialStream stream = MakeAdversarialStream(name, ap);
    for (const EvictionPolicy policy : kAllPolicies) {
      MonitorConfig cfg;
      cfg.eviction =
          EvictionConfig{}.WithPolicy(policy).WithMaxInstances(24);
      ExpectEnginesIdentical(stream.property, cfg, stream.events,
                             stream.horizon,
                             name + "/" + EvictionPolicyName(policy));
    }
  }
}

// ------------------------------------------------------ oracle recall

TEST(AdversarialRecall, UnboundedDefaultMatchesOracleExactly) {
  // Pay-for-what-you-use: a default config IS the oracle — recall 1.0,
  // nothing spurious, nothing evicted.
  for (const std::string& name : AdversarialStreamNames()) {
    AdversarialParams ap;
    ap.attackers = 64;
    const AdversarialStream stream = MakeAdversarialStream(name, ap);
    const RecallReport r = MeasureRecall(stream, MonitorConfig{});
    EXPECT_EQ(r.oracle_violations, stream.planted) << name;
    EXPECT_EQ(r.detected, r.oracle_violations) << name;
    EXPECT_EQ(r.spurious, 0u) << name;
    EXPECT_EQ(r.evictions, 0u) << name;
    EXPECT_DOUBLE_EQ(r.Recall(), 1.0) << name;
  }
}

TEST(AdversarialRecall, EvasionBeatsCreationOrderButNotTimeoutPriority) {
  // The tentpole's headline asymmetry, on both deadline-carrying streams:
  // the flood pushes the victims out under kCreationOrder (recall 0) while
  // kTimeoutPriority sheds the attackers — their deadlines are furthest —
  // and keeps recall at 1.0 with the same cap.
  for (const std::string& name : {std::string("fw_evasion"),
                                  std::string("dhcp_starvation")}) {
    AdversarialParams ap;
    ap.attackers = 200;
    ap.victims = 8;
    const AdversarialStream stream = MakeAdversarialStream(name, ap);
    const std::size_t cap = 32;  // >> victims, << victims + attackers

    MonitorConfig fifo;
    fifo.eviction = EvictionConfig{}
                        .WithPolicy(EvictionPolicy::kCreationOrder)
                        .WithMaxInstances(cap);
    const RecallReport rf = MeasureRecall(stream, fifo);
    EXPECT_EQ(rf.oracle_violations, stream.planted) << name;
    EXPECT_EQ(rf.detected, 0u) << name;
    EXPECT_GT(rf.evictions, 0u) << name;

    MonitorConfig tp;
    tp.eviction = EvictionConfig{}
                      .WithPolicy(EvictionPolicy::kTimeoutPriority)
                      .WithMaxInstances(cap);
    const RecallReport rt = MeasureRecall(stream, tp);
    EXPECT_EQ(rt.detected, rt.oracle_violations) << name;
    EXPECT_DOUBLE_EQ(rt.Recall(), 1.0) << name;
    EXPECT_GT(rt.evictions, 0u) << name;
  }
}

TEST(AdversarialRecall, DeadlineFreePropertiesGetNoMitigation) {
  // portknock_storm / nat_churn target window-less properties: every
  // instance is deadline-free, so kTimeoutPriority degenerates to
  // creation order and the storm defeats both (the documented negative
  // result).
  for (const std::string& name : {std::string("portknock_storm"),
                                  std::string("nat_churn")}) {
    AdversarialParams ap;
    ap.attackers = 200;
    ap.victims = 8;
    const AdversarialStream stream = MakeAdversarialStream(name, ap);
    for (const EvictionPolicy policy :
         {EvictionPolicy::kCreationOrder, EvictionPolicy::kTimeoutPriority}) {
      MonitorConfig cfg;
      cfg.eviction =
          EvictionConfig{}.WithPolicy(policy).WithMaxInstances(32);
      const RecallReport r = MeasureRecall(stream, cfg);
      EXPECT_EQ(r.oracle_violations, stream.planted) << name;
      EXPECT_EQ(r.detected, 0u)
          << name << "/" << EvictionPolicyName(policy);
    }
  }
}

TEST(AdversarialRecall, FuzzSoupRecallNeverExceedsOracle) {
  // Differential on unstructured input: bounded runs report a subset of
  // the oracle's violations (no spurious reports from eviction) for every
  // policy — eviction may only lose, never invent.
  const Property p = FirewallReturnNotDroppedTimeout();
  AdversarialStream stream;
  stream.name = "fuzz";
  stream.property = p;
  stream.events = EventSoup(/*seed=*/31337, /*count=*/2500);
  stream.horizon = stream.events.back().time + Duration::Seconds(300);
  for (const EvictionPolicy policy : kAllPolicies) {
    MonitorConfig cfg;
    cfg.eviction = EvictionConfig{}.WithPolicy(policy).WithMaxInstances(3);
    const RecallReport r = MeasureRecall(stream, cfg);
    EXPECT_EQ(r.spurious, 0u) << EvictionPolicyName(policy);
    EXPECT_LE(r.detected, r.oracle_violations) << EvictionPolicyName(policy);
  }
}

// --------------------------------------------------- sharded parity

TEST(EvictionShardedParity, MergedCountersExactAtEveryWorkerCount) {
  // Eviction-enabled properties are ineligible for instance sharding
  // (victim order is global), so they property-shard; the merged
  // violations and eviction counters must equal the serial run's exactly
  // at every worker count, on both engines.
  const AdversarialStream stream = FirewallEvasionStream({});
  const Property dhcp = DhcpReplyDeadline();

  for (const EngineKind kind : {EngineKind::kCompiled,
                                EngineKind::kInterpreted}) {
    SCOPED_TRACE(EngineKindName(kind));
    const auto cfg_for = [&](EvictionPolicy policy) {
      MonitorConfig cfg;
      cfg.engine = kind;
      cfg.eviction = EvictionConfig{}.WithPolicy(policy).WithMaxInstances(16);
      return cfg;
    };

    MonitorSet serial;
    serial.Add(stream.property, cfg_for(EvictionPolicy::kCreationOrder));
    serial.Add(dhcp, cfg_for(EvictionPolicy::kTimeoutPriority));
    for (const DataplaneEvent& ev : stream.events)
      serial.OnDataplaneEvent(ev);
    serial.AdvanceTime(stream.horizon);
    const telemetry::Snapshot want = serial.TelemetrySnapshot();

    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      ParallelConfig pc;
      pc.workers = workers;
      pc.batch_capacity = 64;
      ParallelMonitorSet parallel(pc);
      parallel.Add(stream.property, cfg_for(EvictionPolicy::kCreationOrder));
      parallel.Add(dhcp, cfg_for(EvictionPolicy::kTimeoutPriority));
      parallel.Start();
      for (const DataplaneEvent& ev : stream.events)
        parallel.OnDataplaneEvent(ev);
      parallel.AdvanceTime(stream.horizon);
      parallel.Stop();
      const telemetry::Snapshot got = parallel.TelemetrySnapshot();

      for (const auto& [name, sample] : want.samples()) {
        ASSERT_TRUE(got.Has(name))
            << "workers=" << workers << " missing " << name;
        EXPECT_TRUE(sample == got.samples().at(name))
            << "workers=" << workers << " diverges at " << name;
      }
      // The eviction telemetry specifically (exact merged counts).
      EXPECT_GT(want.counter("monitor.engine.fw-return-not-dropped-timeout."
                             "evictions.policy.creation-order"),
                0u);
      EXPECT_EQ(got.counter("monitor.engine.fw-return-not-dropped-timeout."
                            "evictions.policy.creation-order"),
                want.counter("monitor.engine.fw-return-not-dropped-timeout."
                             "evictions.policy.creation-order"));
    }
  }
}

// ---------------------------------------------- hot lifecycle of a cap

TEST(EvictionLifecycle, HotAttachDetachCappedPropertyLeavesResidentsAlone) {
  const AdversarialStream stream = DhcpStarvationStream({});
  const std::size_t half = stream.events.size() / 2;
  const std::size_t three_quarters = (stream.events.size() * 3) / 4;

  const auto resident_violations = [&](bool with_capped) {
    MonitorSet set;
    set.Add(FirewallReturnNotDroppedTimeout());
    PropertyId capped = 0;
    std::vector<Violation> drained;
    for (std::size_t i = 0; i < stream.events.size(); ++i) {
      if (with_capped && i == half) {
        MonitorConfig cfg;
        cfg.eviction = EvictionConfig{}
                           .WithPolicy(EvictionPolicy::kLru)
                           .WithMaxInstances(8);
        capped = set.AttachProperty(stream.property, cfg);
      }
      if (with_capped && i == three_quarters) {
        auto got = set.DetachProperty(capped);
        EXPECT_TRUE(got.has_value());
        if (got) drained = std::move(*got);
      }
      set.OnDataplaneEvent(stream.events[i]);
    }
    set.AdvanceTime(stream.horizon);
    return set.AllViolations();
  };

  const auto base = resident_violations(false);
  const auto with = resident_violations(true);
  ASSERT_EQ(base.size(), with.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].property, with[i].property);
    EXPECT_EQ(base[i].time.nanos(), with[i].time.nanos());
    EXPECT_EQ(base[i].instance_id, with[i].instance_id);
  }
}

// ------------------------------------------------------ registry sanity

TEST(ScenarioRegistryTest, CoversDeviceScenariosAndAdversarialFamily) {
  EXPECT_GE(ScenarioRegistryEntries().size(), 13u);
  for (const char* name :
       {"firewall", "nat", "learning", "arp", "portknock", "lb", "ftp",
        "dhcp", "dhcp_arp", "adversarial:fw_evasion",
        "adversarial:dhcp_starvation", "adversarial:portknock_storm",
        "adversarial:nat_churn"}) {
    EXPECT_TRUE(HasScenario(name)) << name;
  }
  EXPECT_FALSE(HasScenario("nope"));
}

TEST(ScenarioRegistryTest, RunsByNameWithTraceCapture) {
  ScenarioOptions opts;
  opts.keep_trace = true;
  const auto fw = RunScenarioByName("firewall", /*faulted=*/true, opts);
  EXPECT_GT(fw.packets_injected, 0u);
  EXPECT_GT(fw.TotalViolations(), 0u);
  ASSERT_NE(fw.trace, nullptr);
  EXPECT_GT(fw.trace->size(), 0u);

  const auto adv =
      RunScenarioByName("adversarial:fw_evasion", /*faulted=*/true, opts);
  EXPECT_GT(adv.packets_injected, 0u);
  EXPECT_EQ(adv.TotalViolations(), 8u);  // default AdversarialParams victims
  ASSERT_NE(adv.trace, nullptr);
  EXPECT_EQ(adv.trace->size(),
            FirewallEvasionStream({}).events.size());

  const auto unknown = RunScenarioByName("nope", true, {});
  EXPECT_EQ(unknown.packets_injected, 0u);
}

TEST(ScenarioRegistryTest, StreamsAreDeterministicFromSeed) {
  for (const std::string& name : AdversarialStreamNames()) {
    AdversarialParams ap;
    ap.seed = 5;
    const auto a = MakeAdversarialStream(name, ap);
    const auto b = MakeAdversarialStream(name, ap);
    ap.seed = 6;
    const auto c = MakeAdversarialStream(name, ap);
    ASSERT_EQ(a.events.size(), b.events.size()) << name;
    bool same_times = true, same_as_c = a.events.size() == c.events.size();
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      same_times &= a.events[i].time.nanos() == b.events[i].time.nanos();
      if (same_as_c)
        same_as_c &= a.events[i].time.nanos() == c.events[i].time.nanos();
    }
    EXPECT_TRUE(same_times) << name;
    EXPECT_FALSE(same_as_c) << name << " seed must perturb the stream";
  }
}

}  // namespace
}  // namespace swmon
