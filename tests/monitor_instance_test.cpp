// Instance identification (Feature 8): indexed vs linear stores, multiple
// match, wandering match, and suppression.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "monitor/engine.hpp"
#include "monitor/property_builder.hpp"
#include "telemetry_helpers.hpp"

namespace swmon {
namespace {

DataplaneEvent Ev(DataplaneEventType type, std::int64_t ms,
                  std::initializer_list<std::pair<FieldId, std::uint64_t>> kv) {
  DataplaneEvent ev;
  ev.type = type;
  ev.time = SimTime::Zero() + Duration::Millis(ms);
  for (const auto& [k, v] : kv) ev.fields.Set(k, v);
  return ev;
}

constexpr std::uint64_t kForward =
    static_cast<std::uint64_t>(EgressActionValue::kForward);

/// Learning-switch link-down shape (multiple match).
Property MultiMatch() {
  PropertyBuilder b("multi", "test");
  const VarId D = b.Var("D");
  b.AddStage("learn").Match(PatternBuilder::Arrival().Build()).Bind(
      D, FieldId::kEthSrc);
  b.AddStage("link down")
      .Match(PatternBuilder::LinkStatus().Eq(FieldId::kLinkUp, 0).Build());
  b.AddStage("stale unicast")
      .Match(PatternBuilder::Egress()
                 .EqVar(FieldId::kEthDst, D)
                 .Forwarded()
                 .Build())
      .AbortOn(PatternBuilder::Arrival().EqVar(FieldId::kEthSrc, D).Build());
  return std::move(b).Build();
}

TEST(InstanceTest, MultipleMatchAdvancesAllInstances) {
  MonitorEngine eng(MultiMatch());
  for (std::uint64_t d = 1; d <= 4; ++d)
    eng.ProcessEvent(
        Ev(DataplaneEventType::kArrival, static_cast<int>(d),
           {{FieldId::kEthSrc, d}}));
  EXPECT_EQ(eng.live_instances(), 4u);

  // One link-down advances all four (Feature 8, multiple match).
  eng.ProcessEvent(
      Ev(DataplaneEventType::kLinkStatus, 10, {{FieldId::kLinkUp, 0}}));
  EXPECT_EQ(eng.live_instances(), 4u);
  EXPECT_EQ(EngineStat(eng, "instances_advanced"), 4u);

  // Unicast to D=2 without re-learning: exactly one violation.
  eng.ProcessEvent(Ev(DataplaneEventType::kEgress, 20,
                      {{FieldId::kEthDst, 2}, {FieldId::kEgressAction, kForward}}));
  ASSERT_EQ(eng.violations().size(), 1u);
  EXPECT_EQ(eng.violations()[0].bindings[0].second, 2u);
}

TEST(InstanceTest, RelearnDischargesAfterLinkDown) {
  MonitorEngine eng(MultiMatch());
  eng.ProcessEvent(Ev(DataplaneEventType::kArrival, 1, {{FieldId::kEthSrc, 9}}));
  eng.ProcessEvent(
      Ev(DataplaneEventType::kLinkStatus, 2, {{FieldId::kLinkUp, 0}}));
  // D re-announces: the stale-unicast obligation is discharged...
  eng.ProcessEvent(Ev(DataplaneEventType::kArrival, 3, {{FieldId::kEthSrc, 9}}));
  EXPECT_EQ(EngineStat(eng, "instances_aborted"), 1u);
  // ...and the same event creates a fresh stage-1 instance.
  EXPECT_EQ(eng.live_instances(), 1u);
  eng.ProcessEvent(Ev(DataplaneEventType::kEgress, 4,
                      {{FieldId::kEthDst, 9}, {FieldId::kEgressAction, kForward}}));
  EXPECT_TRUE(eng.violations().empty());
}

TEST(InstanceTest, LinkUpEventsDoNotAdvance) {
  MonitorEngine eng(MultiMatch());
  eng.ProcessEvent(Ev(DataplaneEventType::kArrival, 1, {{FieldId::kEthSrc, 9}}));
  eng.ProcessEvent(
      Ev(DataplaneEventType::kLinkStatus, 2, {{FieldId::kLinkUp, 1}}));
  eng.ProcessEvent(Ev(DataplaneEventType::kEgress, 3,
                      {{FieldId::kEthDst, 9}, {FieldId::kEgressAction, kForward}}));
  EXPECT_TRUE(eng.violations().empty());
}

/// DHCP+ARP shape: stage 0 binds DHCP fields, stage 1 matches ARP fields.
Property Wandering() {
  PropertyBuilder b("wandering", "test");
  const VarId A = b.Var("A");
  b.AddStage("lease").Match(PatternBuilder::Egress().Build()).Bind(
      A, FieldId::kDhcpYiaddr);
  b.AddStage("arp request").Match(PatternBuilder::Arrival()
                                      .Eq(FieldId::kArpOp, 1)
                                      .EqVar(FieldId::kArpTargetIp, A)
                                      .Build());
  b.IdMode(InstanceIdMode::kWandering);
  return std::move(b).Build();
}

TEST(InstanceTest, WanderingMatchCrossesProtocols) {
  MonitorEngine eng(Wandering());
  eng.ProcessEvent(
      Ev(DataplaneEventType::kEgress, 0, {{FieldId::kDhcpYiaddr, 42}}));
  // ARP request for the DHCP-bound address completes the pattern.
  eng.ProcessEvent(Ev(DataplaneEventType::kArrival, 1,
                      {{FieldId::kArpOp, 1}, {FieldId::kArpTargetIp, 42}}));
  EXPECT_EQ(eng.violations().size(), 1u);
}

TEST(InstanceTest, SuppressionBlocksCreation) {
  PropertyBuilder b("suppress", "no direct reply without prior");
  b.AddStage("direct reply")
      .Match(PatternBuilder::Egress().Eq(FieldId::kArpOp, 2).Build());
  b.SuppressionKey({FieldId::kArpSenderIp});
  b.SuppressWhen(
      PatternBuilder::Arrival().Eq(FieldId::kArpOp, 2).Build(),
      {FieldId::kArpSenderIp});
  MonitorEngine eng(std::move(b).Build());

  // A reply that traversed the switch (arrival) suppresses its address...
  eng.ProcessEvent(Ev(DataplaneEventType::kArrival, 0,
                      {{FieldId::kArpOp, 2}, {FieldId::kArpSenderIp, 5}}));
  // ...so the forwarded egress is fine:
  eng.ProcessEvent(Ev(DataplaneEventType::kEgress, 1,
                      {{FieldId::kArpOp, 2}, {FieldId::kArpSenderIp, 5}}));
  EXPECT_TRUE(eng.violations().empty());
  EXPECT_EQ(EngineStat(eng, "suppressed_creations"), 1u);
  // A fabricated reply for a never-seen address violates:
  eng.ProcessEvent(Ev(DataplaneEventType::kEgress, 2,
                      {{FieldId::kArpOp, 2}, {FieldId::kArpSenderIp, 6}}));
  EXPECT_EQ(eng.violations().size(), 1u);
}

TEST(InstanceTest, SuppressorRunsAfterCreationOnSameEvent) {
  // The violating egress itself must not pre-suppress its own creation,
  // but it DOES suppress subsequent ones when listed as a suppressor.
  PropertyBuilder b("suppress-order", "test");
  b.AddStage("reply")
      .Match(PatternBuilder::Egress().Eq(FieldId::kArpOp, 2).Build());
  b.SuppressionKey({FieldId::kArpSenderIp});
  b.SuppressWhen(
      PatternBuilder::Egress().Eq(FieldId::kArpOp, 2).Build(),
      {FieldId::kArpSenderIp});
  MonitorEngine eng(std::move(b).Build());
  eng.ProcessEvent(Ev(DataplaneEventType::kEgress, 0,
                      {{FieldId::kArpOp, 2}, {FieldId::kArpSenderIp, 5}}));
  EXPECT_EQ(eng.violations().size(), 1u);  // first fabrication reported
  eng.ProcessEvent(Ev(DataplaneEventType::kEgress, 1,
                      {{FieldId::kArpOp, 2}, {FieldId::kArpSenderIp, 5}}));
  EXPECT_EQ(eng.violations().size(), 1u);  // repeats suppressed
}

// The indexed store and the forced-linear store must agree exactly.
class StoreEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreEquivalenceTest, IndexedMatchesLinear) {
  Rng rng(GetParam());
  InterpreterAblation linear;
  linear.force_linear_store = true;

  PropertyBuilder b("equiv", "firewall shape");
  const VarId A = b.Var("A"), B = b.Var("B");
  b.AddStage("out")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kInPort, 1).Build())
      .Bind(A, FieldId::kIpSrc)
      .Bind(B, FieldId::kIpDst)
      .Window(Duration::Millis(500))
      .RefreshOnRematch();
  b.AddStage("drop").Match(PatternBuilder::Egress()
                               .EqVar(FieldId::kIpSrc, B)
                               .EqVar(FieldId::kIpDst, A)
                               .Dropped()
                               .Build());
  Property prop = std::move(b).Build();

  MonitorEngine indexed(prop, MonitorConfig{});
  MonitorEngine scan(prop, MonitorConfig{}, linear);

  for (int i = 0; i < 400; ++i) {
    const std::uint64_t src = rng.NextBelow(8), dst = rng.NextBelow(8);
    DataplaneEvent ev;
    ev.time = SimTime::Zero() + Duration::Millis(i * 7);
    if (rng.NextBool(0.5)) {
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1);
      ev.fields.Set(FieldId::kIpSrc, src);
      ev.fields.Set(FieldId::kIpDst, dst);
    } else {
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kIpSrc, src);
      ev.fields.Set(FieldId::kIpDst, dst);
      ev.fields.Set(FieldId::kEgressAction,
                    rng.NextBool(0.5)
                        ? static_cast<std::uint64_t>(EgressActionValue::kDrop)
                        : static_cast<std::uint64_t>(
                              EgressActionValue::kForward));
    }
    indexed.ProcessEvent(ev);
    scan.ProcessEvent(ev);
    ASSERT_EQ(indexed.live_instances(), scan.live_instances()) << "step " << i;
    ASSERT_EQ(indexed.violations().size(), scan.violations().size())
        << "step " << i;
  }
  // The indexed store must have examined no MORE candidates than the scan.
  EXPECT_LE(EngineStat(indexed, "candidate_checks"),
            EngineStat(scan, "candidate_checks"));
}

// The same with aborts (DESIGN.md 5m): one probing the stage's link
// index, one with its own index over a var the stage rebinds before its
// Count(2) completes, and a constant-only one that walks the stage. The
// linear store walks for all three.
TEST_P(StoreEquivalenceTest, IndexedAbortsMatchLinear) {
  Rng rng(GetParam());
  InterpreterAblation linear;
  linear.force_linear_store = true;

  PropertyBuilder b("equiv-aborts", "firewall shape with obligations");
  const VarId A = b.Var("A"), B = b.Var("B"), P = b.Var("P");
  b.AddStage("out")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kInPort, 1).Build())
      .Bind(A, FieldId::kIpSrc)
      .Bind(B, FieldId::kIpDst)
      .Bind(P, FieldId::kL4SrcPort)
      .Window(Duration::Millis(500))
      .RefreshOnRematch();
  b.AddStage("two drops")
      .Match(PatternBuilder::Egress()
                 .EqVar(FieldId::kIpSrc, B)
                 .EqVar(FieldId::kIpDst, A)
                 .Dropped()
                 .Build())
      .Bind(P, FieldId::kL4DstPort)
      .Count(2)
      .AbortOn(PatternBuilder::Arrival()
                   .Eq(FieldId::kInPort, 2)
                   .EqVar(FieldId::kIpDst, B)
                   .EqVar(FieldId::kIpSrc, A)
                   .Build())
      .AbortOn(PatternBuilder::Arrival()
                   .Eq(FieldId::kInPort, 3)
                   .EqVar(FieldId::kL4SrcPort, P)
                   .Build())
      .AbortOn(PatternBuilder::LinkStatus().Eq(FieldId::kLinkUp, 0).Build());
  Property prop = std::move(b).Build();

  MonitorEngine indexed(prop, MonitorConfig{});
  MonitorEngine scan(prop, MonitorConfig{}, linear);

  for (int i = 0; i < 600; ++i) {
    const std::uint64_t src = rng.NextBelow(8), dst = rng.NextBelow(8);
    DataplaneEvent ev;
    ev.time = SimTime::Zero() + Duration::Millis(i * 7);
    const auto roll = rng.NextBelow(20);
    if (roll == 0) {
      ev.type = DataplaneEventType::kLinkStatus;
      ev.fields.Set(FieldId::kLinkUp, rng.NextBelow(2));
    } else if (roll < 10) {
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(3));
      ev.fields.Set(FieldId::kIpSrc, src);
      ev.fields.Set(FieldId::kIpDst, dst);
      ev.fields.Set(FieldId::kL4SrcPort, rng.NextBelow(4));
    } else {
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kIpSrc, src);
      ev.fields.Set(FieldId::kIpDst, dst);
      ev.fields.Set(FieldId::kL4DstPort, rng.NextBelow(4));
      ev.fields.Set(FieldId::kEgressAction,
                    rng.NextBool(0.5)
                        ? static_cast<std::uint64_t>(EgressActionValue::kDrop)
                        : static_cast<std::uint64_t>(
                              EgressActionValue::kForward));
    }
    indexed.ProcessEvent(ev);
    scan.ProcessEvent(ev);
    ASSERT_EQ(indexed.live_instances(), scan.live_instances()) << "step " << i;
    ASSERT_EQ(indexed.violations().size(), scan.violations().size())
        << "step " << i;
  }
  EXPECT_EQ(EngineStat(indexed, "instances_aborted"),
            EngineStat(scan, "instances_aborted"));
  EXPECT_GT(EngineStat(indexed, "instances_aborted"), 0u);
  EXPECT_LE(EngineStat(indexed, "candidate_checks"),
            EngineStat(scan, "candidate_checks"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 47));

TEST(InstanceTest, UnboundLinkVarFallsBackToScan) {
  // Stage 2's link var (X) is bound at stage 1, not stage 0 — instances at
  // stage 1 wait with X unbound and must still be matchable.
  PropertyBuilder b("latebind", "test");
  const VarId A = b.Var("A"), X = b.Var("X");
  b.AddStage("s0").Match(PatternBuilder::Arrival().Build()).Bind(
      A, FieldId::kIpSrc);
  b.AddStage("s1")
      .Match(PatternBuilder::Egress().EqVar(FieldId::kIpSrc, A).Build())
      .Bind(X, FieldId::kOutPort);
  b.AddStage("s2").Match(
      PatternBuilder::Egress().EqVar(FieldId::kOutPort, X).Dropped().Build());
  MonitorEngine eng(std::move(b).Build());

  eng.ProcessEvent(Ev(DataplaneEventType::kArrival, 0, {{FieldId::kIpSrc, 1}}));
  eng.ProcessEvent(Ev(DataplaneEventType::kEgress, 1,
                      {{FieldId::kIpSrc, 1}, {FieldId::kOutPort, 4}}));
  eng.ProcessEvent(
      Ev(DataplaneEventType::kEgress, 2,
         {{FieldId::kOutPort, 4},
          {FieldId::kEgressAction,
           static_cast<std::uint64_t>(EgressActionValue::kDrop)}}));
  EXPECT_EQ(eng.violations().size(), 1u);
}

}  // namespace
}  // namespace swmon
