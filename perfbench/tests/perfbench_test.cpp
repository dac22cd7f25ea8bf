// Tests for the benchmark's own logic: the triggering-event mapping behind
// detection latency, percentile and sample-count reporting, the oracle's
// multiset comparison, the /violations payload parser, and seeded streams.
#include <gtest/gtest.h>

#include "daemon/daemon.hpp"
#include "monitor/monitor_set.hpp"
#include "oracle.hpp"
#include "properties/catalog.hpp"
#include "stats.hpp"
#include "streams.hpp"

namespace perfbench {
namespace {

using swmon::DataplaneEvent;
using swmon::DataplaneEventType;
using swmon::FieldId;
using swmon::SimTime;

DataplaneEvent At(std::int64_t ns, DataplaneEventType type) {
  DataplaneEvent ev;
  ev.type = type;
  ev.time = SimTime::FromNanos(ns);
  return ev;
}

TEST(TriggerIndexTest, FirstEventAtOrAfterTheViolationTime) {
  const std::vector<std::int64_t> times = {10, 20, 30, 40};
  EXPECT_EQ(TriggerIndex(times, 20), 1u);  // exactly an event's time
  EXPECT_EQ(TriggerIndex(times, 25), 2u);  // between events: the next one
  EXPECT_EQ(TriggerIndex(times, 5), 0u);
  EXPECT_EQ(TriggerIndex(times, 41), 4u);  // past the stream: none
}

/// Runs `events` through one interpreted property and maps each violation
/// to its triggering event.
std::vector<std::size_t> Triggers(const swmon::Property& p,
                                  const std::vector<DataplaneEvent>& events) {
  swmon::MonitorSet set;
  swmon::MonitorConfig config;
  config.engine = swmon::EngineKind::kInterpreted;
  set.Add(p, config);
  std::vector<std::int64_t> times;
  for (const DataplaneEvent& ev : events) {
    set.OnDataplaneEvent(ev);
    times.push_back(ev.time.nanos());
  }
  std::vector<std::size_t> out;
  for (const swmon::Violation& v : set.AllViolations())
    out.push_back(TriggerIndex(times, v.time.nanos()));
  return out;
}

TEST(TriggerIndexTest, MatchViolationMapsToTheMatchingEvent) {
  std::vector<DataplaneEvent> events;
  DataplaneEvent out = At(1000, DataplaneEventType::kArrival);
  out.fields.Set(FieldId::kInPort, 1);
  out.fields.Set(FieldId::kIpSrc, 7);
  out.fields.Set(FieldId::kIpDst, 9);
  events.push_back(out);
  events.push_back(At(2000, DataplaneEventType::kLinkStatus));
  DataplaneEvent drop = At(3000, DataplaneEventType::kEgress);
  drop.fields.Set(FieldId::kIpSrc, 9);
  drop.fields.Set(FieldId::kIpDst, 7);
  drop.fields.Set(FieldId::kEgressAction,
                  static_cast<std::uint64_t>(swmon::EgressActionValue::kDrop));
  events.push_back(drop);
  events.push_back(At(4000, DataplaneEventType::kLinkStatus));
  EXPECT_EQ(Triggers(swmon::FirewallReturnNotDropped(), events),
            std::vector<std::size_t>{2});
}

TEST(TriggerIndexTest, TimeoutViolationMapsToTheEventThatAdvancedTime) {
  // A DHCP REQUEST never answered: the 2 s deadline lapses between the
  // events at 1 s and 5 s, and only the 5 s event surfaces it.
  std::vector<DataplaneEvent> events;
  DataplaneEvent req = At(1'000'000'000, DataplaneEventType::kArrival);
  req.fields.Set(FieldId::kDhcpMsgType, 3);
  req.fields.Set(FieldId::kDhcpChaddr, 0xc1);
  req.fields.Set(FieldId::kDhcpXid, 5);
  events.push_back(req);
  events.push_back(At(1'500'000'000, DataplaneEventType::kLinkStatus));
  events.push_back(At(5'000'000'000, DataplaneEventType::kLinkStatus));
  EXPECT_EQ(Triggers(swmon::DhcpReplyDeadline(), events),
            std::vector<std::size_t>{2});
}

TEST(StatsTest, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(StatsTest, TailReportsP99OnlyWithTenSamplesBeyondIt) {
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  TailReport t = Tail(v);
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 989);  // 10 samples (990..999) lie beyond it
  EXPECT_EQ(t.samples, 1000u);

  v.resize(999);  // p99 would have only 9 beyond it
  t = Tail(v);
  EXPECT_EQ(t.pct, 95);
  EXPECT_EQ(t.samples, 999u);

  v.resize(15);  // nothing has 10 beyond it: fall back to the median
  t = Tail(v);
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.value, 7);
  EXPECT_EQ(Tail({}).samples, 0u);
}

ViolationKey Key(const char* property, std::int64_t t, std::uint64_t a) {
  return {property, "stage", t, {{"A", a}}};
}

TEST(OracleTest, MultisetComparisonCountsMissingAndExtra) {
  const std::vector<ViolationKey> expected = {Key("p", 1, 1), Key("p", 1, 1),
                                              Key("p", 2, 1), Key("q", 3, 4)};
  EXPECT_EQ(CompareMultisets(expected, {Key("q", 3, 4), Key("p", 2, 1),
                                        Key("p", 1, 1), Key("p", 1, 1)})
                .failures(),
            0u);
  // One duplicate lost, one binding changed.
  const MultisetDiff d = CompareMultisets(
      expected, {Key("p", 1, 1), Key("p", 2, 1), Key("q", 3, 5)});
  EXPECT_EQ(d.missing, 2u);
  EXPECT_EQ(d.extra, 1u);
}

TEST(OracleTest, ParsesTheViolationsPayload) {
  swmon::Violation a;
  a.property = "fw \"quoted\"";
  a.time = SimTime::FromNanos(123);
  a.instance_id = 9;
  a.trigger_stage = "B->A\tdropped";
  a.bindings = {{"A", 7}, {"B", 18446744073709551615ull}};
  swmon::Violation b = a;
  b.bindings.clear();
  std::vector<ViolationKey> keys;
  ASSERT_TRUE(ParseViolationsJson(swmon::ViolationsToJson({a, b}), &keys));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], KeyOf(a));
  EXPECT_EQ(keys[1], KeyOf(b));
  keys.clear();
  EXPECT_TRUE(ParseViolationsJson(swmon::ViolationsToJson({}), &keys));
  EXPECT_TRUE(keys.empty());
  EXPECT_FALSE(ParseViolationsJson("{\"error\":1}", &keys));
}

TEST(StreamsTest, SeededAndDecodable) {
  for (const Workload& w : Workloads()) {
    const EncodedStream a = Encode(w, 7, 3000);
    const EncodedStream b = Encode(w, 7, 3000);
    const EncodedStream c = Encode(w, 8, 3000);
    EXPECT_EQ(a.bytes, b.bytes) << w.name;
    EXPECT_NE(a.bytes, c.bytes) << w.name;
    std::size_t n = 0;
    EXPECT_TRUE(ForEachEvent(a, [&](const DataplaneEvent& ev) {
      EXPECT_EQ(ev.time.nanos(), a.times_ns[n]);
      ++n;
    })) << w.name;
    EXPECT_EQ(n, 3000u);
    for (std::size_t i = 1; i < a.size(); ++i)
      ASSERT_LT(a.times_ns[i - 1], a.times_ns[i]) << w.name;
  }
}

}  // namespace
}  // namespace perfbench
