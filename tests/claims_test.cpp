// The paper's quantitative claims, as CI assertions: the shapes the bench
// binaries print (EXPERIMENTS.md E3–E7) must hold on every build.
#include <gtest/gtest.h>

#include "backends/backend.hpp"
#include "backends/controller_monitor.hpp"
#include "backends/executor.hpp"
#include "monitor/engine.hpp"
#include "monitor/property_builder.hpp"
#include "properties/catalog.hpp"
#include "workload/learning_scenario.hpp"

namespace swmon {
namespace {

std::unique_ptr<CompiledMonitor> CompileOn(const std::string& name,
                                           const Property& prop) {
  for (auto& b : AllBackends()) {
    if (b->info().name != name) continue;
    auto r = b->Compile(prop, CostParams{});
    EXPECT_TRUE(r.ok());
    return std::move(r.monitor);
  }
  return nullptr;
}

/// N open firewall connections, then `probes` forwarded returns.
Duration ProbeCost(const std::string& backend, std::size_t instances,
                   std::size_t* depth = nullptr) {
  auto mon = CompileOn(backend, FirewallReturnNotDropped());
  SimTime t = SimTime::Zero();
  for (std::size_t c = 0; c < instances; ++c) {
    DataplaneEvent ev;
    ev.type = DataplaneEventType::kArrival;
    t = t + Duration::Millis(1);
    ev.time = t;
    ev.fields.Set(FieldId::kInPort, 1);
    ev.fields.Set(FieldId::kIpSrc, 1000 + c);
    ev.fields.Set(FieldId::kIpDst, 9);
    mon->OnDataplaneEvent(ev);
  }
  mon->AdvanceTime(t + Duration::Seconds(1));
  const Duration before = mon->costs().processing_time;
  for (std::size_t i = 0; i < 500; ++i) {
    DataplaneEvent ev;
    ev.type = DataplaneEventType::kEgress;
    t = t + Duration::Micros(10);
    ev.time = t;
    ev.fields.Set(FieldId::kIpSrc, 9);
    ev.fields.Set(FieldId::kIpDst, 1000 + i % instances);
    ev.fields.Set(FieldId::kEgressAction,
                  static_cast<std::uint64_t>(EgressActionValue::kForward));
    mon->OnDataplaneEvent(ev);
  }
  if (depth) *depth = mon->PipelineDepth();
  return mon->costs().processing_time - before;
}

TEST(ClaimsTest, E3_VaranusCostGrowsLinearlyBoundedDesignsStayFlat) {
  std::size_t d64 = 0, d512 = 0;
  const Duration varanus64 = ProbeCost("Varanus", 64, &d64);
  const Duration varanus512 = ProbeCost("Varanus", 512, &d512);
  // Depth tracks instances exactly; cost grows ~8x for 8x instances.
  EXPECT_EQ(d64, 65u);
  EXPECT_EQ(d512, 513u);
  const double ratio = static_cast<double>(varanus512.nanos()) /
                       static_cast<double>(varanus64.nanos());
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 10.0);

  // The bounded designs are instance-count independent.
  for (const char* flat : {"Static Varanus", "OpenState", "POF / P4"}) {
    EXPECT_EQ(ProbeCost(flat, 64).nanos(), ProbeCost(flat, 512).nanos())
        << flat;
  }
}

TEST(ClaimsTest, E4_FastPathDwarfsSlowPathUpdateRates) {
  const CostParams p;
  const double register_rate = 1e9 / static_cast<double>(p.register_op.nanos());
  EXPECT_GT(register_rate / static_cast<double>(p.flow_mods_per_sec), 1000.0);
}

TEST(ClaimsTest, E5_SplitMissesWithinLatencyInlineAlwaysCatches) {
  const Property prop = FirewallReturnNotDropped();
  const CostParams params;
  auto run = [&](bool inline_mode, Duration gap) {
    FragmentExecutor mon(
        prop, std::make_unique<FastLearnStore>(params, inline_mode), params);
    for (int c = 0; c < 20; ++c) {
      const SimTime base = SimTime::Zero() + Duration::Millis(10 * (c + 1));
      DataplaneEvent out;
      out.type = DataplaneEventType::kArrival;
      out.time = base;
      out.fields.Set(FieldId::kInPort, 1);
      out.fields.Set(FieldId::kIpSrc, 100 + c);
      out.fields.Set(FieldId::kIpDst, 9);
      mon.OnDataplaneEvent(out);
      DataplaneEvent drop;
      drop.type = DataplaneEventType::kEgress;
      drop.time = base + gap;
      drop.fields.Set(FieldId::kIpSrc, 9);
      drop.fields.Set(FieldId::kIpDst, 100 + c);
      drop.fields.Set(FieldId::kEgressAction,
                      static_cast<std::uint64_t>(EgressActionValue::kDrop));
      mon.OnDataplaneEvent(drop);
    }
    return mon.violations().size();
  };
  // Inside the ~500us stale window: split misses everything, inline doesn't.
  EXPECT_EQ(run(false, Duration::Micros(100)), 0u);
  EXPECT_EQ(run(true, Duration::Micros(100)), 20u);
  // Beyond it, both catch everything.
  EXPECT_EQ(run(false, Duration::Millis(1)), 20u);
  EXPECT_EQ(run(true, Duration::Millis(1)), 20u);
}

TEST(ClaimsTest, E6_ExternalBytesGrowWithTrafficOnSwitchBytesDoNot) {
  auto mirrored = [](std::size_t rounds) {
    LearningScenarioConfig config;
    config.rounds = rounds;
    config.hosts = 8;
    config.fault = LearningSwitchFault::kNoFlushOnLinkDown;
    config.inject_link_down = true;
    config.options.seed = 3;
    config.options.keep_trace = true;
    const auto out = RunLearningScenario(config);
    ControllerMonitor external(LearningSwitchLinkDownFlush(), CostParams{});
    out.trace->ReplayInto(external);
    return std::pair{external.TelemetrySnapshot("ext").counter(
                         "backend.controller.ext.bytes_mirrored"),
                     out.ViolationsOf("lsw-linkdown-flush") * 64};
  };
  const auto [ext_small, onsw_small] = mirrored(10);
  const auto [ext_large, onsw_large] = mirrored(160);
  // External grows ~with traffic (16x rounds -> >8x bytes); on-switch
  // tracks violations, which don't grow with traffic volume here.
  EXPECT_GT(ext_large, ext_small * 8);
  EXPECT_LT(onsw_large, onsw_small * 4 + 256);
  // And the external/on-switch ratio widens.
  EXPECT_GT(ext_large / std::max<std::uint64_t>(onsw_large, 1),
            ext_small / std::max<std::uint64_t>(onsw_small, 1));
}

TEST(ClaimsTest, E7_LimitedProvenanceCostsNoExtraStateFullDoes) {
  // Replay identical NAT-ish traffic at the three levels; compare peak
  // engine state.
  auto peak = [](ProvenanceLevel level) {
    MonitorConfig mc;
    mc.provenance = level;
    MonitorEngine engine(NatReverseTranslation(), mc);
    std::size_t best = 0;
    for (int f = 0; f < 50; ++f) {
      DataplaneEvent out;
      out.type = DataplaneEventType::kArrival;
      out.time = SimTime::Zero() + Duration::Millis(f + 1);
      out.fields.Set(FieldId::kInPort, 1);
      out.fields.Set(FieldId::kIpSrc, 10 + f);
      out.fields.Set(FieldId::kIpDst, 9);
      out.fields.Set(FieldId::kL4SrcPort, 1000);
      out.fields.Set(FieldId::kL4DstPort, 80);
      out.fields.Set(FieldId::kPacketId, 100 + f);
      engine.ProcessEvent(out);
      DataplaneEvent fwd;
      fwd.type = DataplaneEventType::kEgress;
      fwd.time = out.time;
      fwd.fields = out.fields;
      fwd.fields.Set(FieldId::kEgressAction,
                     static_cast<std::uint64_t>(EgressActionValue::kForward));
      fwd.fields.Set(FieldId::kIpSrc, 99);
      fwd.fields.Set(FieldId::kL4SrcPort, 50000 + f);
      engine.ProcessEvent(fwd);
      best = std::max(best, engine.StateBytes());
    }
    return best;
  };
  const std::size_t none = peak(ProvenanceLevel::kNone);
  const std::size_t limited = peak(ProvenanceLevel::kLimited);
  const std::size_t full = peak(ProvenanceLevel::kFull);
  EXPECT_EQ(none, limited);   // limited provenance is free (paper's point)
  EXPECT_GT(full, limited * 2);  // full provenance is not
}

TEST(ClaimsTest, E9_MonitoringCostIsLinearInStages) {
  // One synthetic probe cost per stage count on the static design.
  auto cost = [](std::size_t stages) {
    PropertyBuilder b("chain" + std::to_string(stages), "x");
    const VarId H = b.Var("H");
    b.AddStage("s1")
        .Match(PatternBuilder::Arrival().Eq(FieldId::kL4DstPort, 9000).Build())
        .Bind(H, FieldId::kIpSrc);
    for (std::size_t i = 1; i < stages; ++i)
      b.AddStage("s")
          .Match(PatternBuilder::Arrival()
                     .Eq(FieldId::kL4DstPort, 9000 + i)
                     .EqVar(FieldId::kIpSrc, H)
                     .Build());
    const CostParams params;
    FragmentExecutor mon(
        std::move(b).Build(),
        std::make_unique<VaranusStore>(params, stages, /*static=*/true),
        params);
    for (int i = 0; i < 100; ++i) {
      DataplaneEvent ev;
      ev.type = DataplaneEventType::kArrival;
      ev.time = SimTime::Zero() + Duration::Micros(10 * (i + 1));
      ev.fields.Set(FieldId::kIpSrc, 7);
      ev.fields.Set(FieldId::kL4DstPort, 80);
      mon.OnDataplaneEvent(ev);
    }
    return mon.costs().processing_time.nanos();
  };
  EXPECT_EQ(cost(4), 2 * cost(2));
  EXPECT_EQ(cost(8), 4 * cost(2));
}

}  // namespace
}  // namespace swmon
