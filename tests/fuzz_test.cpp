// Robustness ("never crash, never lie") sweeps: random and mutated inputs
// through the packet parser, the SPL parser, and the monitor engine.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "monitor/engine.hpp"
#include "packet/builder.hpp"
#include "packet/parser.hpp"
#include "properties/catalog.hpp"
#include "spl/spl.hpp"
#include "telemetry_helpers.hpp"

namespace swmon {
namespace {

class PacketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzz, RandomBytesNeverCrashTheParser) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = rng.NextBelow(400);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
    const ParsedPacket parsed =
        ParsePacket(std::span(bytes), ParseDepth::kL7);
    // Invariants even on garbage: field presence implies layer presence.
    if (parsed.fields.Has(FieldId::kL4SrcPort))
      EXPECT_TRUE(parsed.tcp || parsed.udp);
    if (parsed.fields.Has(FieldId::kIpSrc)) EXPECT_TRUE(parsed.ipv4);
    if (parsed.fields.Has(FieldId::kDhcpMsgType)) EXPECT_TRUE(parsed.dhcp);
    if (!parsed.valid) EXPECT_LT(len, EthernetHeader::kSize);
  }
}

TEST_P(PacketFuzz, TruncatedRealPacketsNeverCrash) {
  Rng rng(GetParam());
  DhcpMessage msg;
  msg.msg_type = DhcpMsgType::kAck;
  msg.yiaddr = Ipv4Addr(10, 0, 0, 9);
  msg.lease_secs = 60;
  const Packet originals[] = {
      BuildTcp(MacAddr(0x02, 0, 0, 0, 0, 1), MacAddr(0x02, 0, 0, 0, 0, 2),
               Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1, 2, kTcpSyn),
      BuildArpRequest(MacAddr(0x02, 0, 0, 0, 0, 1), Ipv4Addr(10, 0, 0, 1),
                      Ipv4Addr(10, 0, 0, 2)),
      BuildDhcp(MacAddr(0x02, 0, 0, 0, 0, 1), MacAddr::Broadcast(),
                Ipv4Addr(10, 0, 0, 3), Ipv4Addr(10, 0, 0, 9), false, msg),
      BuildFtpControlLine(MacAddr(0x02, 0, 0, 0, 0, 1),
                          MacAddr(0x02, 0, 0, 0, 0, 2), Ipv4Addr(10, 0, 0, 1),
                          Ipv4Addr(10, 0, 0, 2), 40000, 21,
                          FormatFtpPort(Ipv4Addr(10, 0, 0, 1), 5000)),
  };
  for (const Packet& original : originals) {
    for (std::size_t cut = 0; cut <= original.size(); ++cut) {
      Packet truncated = original;
      truncated.data.resize(cut);
      ParsePacket(truncated, ParseDepth::kL7);  // must not crash
    }
    // Random single-byte corruptions.
    for (int i = 0; i < 200; ++i) {
      Packet mutated = original;
      mutated.data[rng.NextBelow(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.NextBelow(255));
      ParsePacket(mutated, ParseDepth::kL7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzz, ::testing::Values(1, 2, 3, 4));

class SplFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplFuzz, TokenSoupAlwaysYieldsErrorOrValidProperty) {
  Rng rng(GetParam());
  const char* words[] = {"property", "stage",  "timeout", "match", "bind",
                         "on",       "arrival", "egress",  "{",     "}",
                         ";",        "==",      "!=",      "$",     "(",
                         ")",        ",",       "ip_src",  "x",     "7",
                         "0x1f",     "\"s\"",   "window",  "1s",    "vars",
                         "unless",   "forbid",  "suppress", "key",  "hash",
                         "%",        "+",       "/",        "mode", "exact"};
  for (int i = 0; i < 3000; ++i) {
    std::string text;
    const std::size_t n = 1 + rng.NextBelow(40);
    for (std::size_t w = 0; w < n; ++w) {
      text += words[rng.NextBelow(std::size(words))];
      text += " ";
    }
    const SplParseResult result = ParseSpl(text);  // must not crash
    if (result.ok()) {
      EXPECT_TRUE(result.property->Validate().empty());
    } else {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST_P(SplFuzz, MutatedCatalogTextNeverCrashes) {
  Rng rng(GetParam());
  for (const auto& entry : BuildCatalog()) {
    const std::string good = SerializeSpl(entry.property);
    for (int i = 0; i < 30; ++i) {
      std::string bad = good;
      // Random deletion, duplication, or byte flip.
      const std::size_t pos = rng.NextBelow(bad.size());
      switch (rng.NextBelow(3)) {
        case 0: bad.erase(pos, 1 + rng.NextBelow(5)); break;
        case 1: bad.insert(pos, bad.substr(pos, 1 + rng.NextBelow(5))); break;
        default: bad[pos] = static_cast<char>(32 + rng.NextBelow(95)); break;
      }
      const SplParseResult result = ParseSpl(bad);
      if (result.ok()) EXPECT_TRUE(result.property->Validate().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplFuzz, ::testing::Values(10, 20, 30));

TEST(EngineFuzz, RandomEventSoupNeverCrashesAnyCatalogProperty) {
  Rng rng(99);
  // Pre-generate a shared random event stream with plausible field mixes.
  std::vector<DataplaneEvent> events;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < 3000; ++i) {
    DataplaneEvent ev;
    t = t + Duration::Micros(static_cast<std::int64_t>(rng.NextBelow(200000)));
    ev.time = t;
    const auto roll = rng.NextBelow(10);
    ev.type = roll < 4   ? DataplaneEventType::kArrival
              : roll < 8 ? DataplaneEventType::kEgress
                         : DataplaneEventType::kLinkStatus;
    // Sprinkle random fields (including nonsense combinations).
    for (std::size_t f = 0; f < kNumFieldIds; ++f) {
      if (rng.NextBool(0.35))
        ev.fields.Set(static_cast<FieldId>(f), rng.NextBelow(16));
    }
    events.push_back(std::move(ev));
  }
  for (const auto& entry : BuildCatalog()) {
    MonitorConfig mc;
    // Exercise eviction under the soup.
    mc.eviction = EvictionConfig{}.WithMaxInstances(512);
    MonitorEngine engine(entry.property, mc);
    for (const auto& ev : events) engine.ProcessEvent(ev);
    engine.AdvanceTime(t + Duration::Seconds(300));
    // Sanity: stats are internally consistent.
    telemetry::Snapshot snap;
    engine.CollectInto(snap, "t");
    EXPECT_EQ(snap.counter("monitor.engine.t.events"), events.size());
    EXPECT_LE(engine.live_instances(), 512u);
    EXPECT_LE(snap.counter("monitor.engine.t.violations"),
              snap.counter("monitor.engine.t.instances_created"));
  }
}

TEST(EngineFuzz, IndexedAndLinearAgreeOnTheSoup) {
  Rng rng(123);
  std::vector<DataplaneEvent> events;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < 1500; ++i) {
    DataplaneEvent ev;
    t = t + Duration::Millis(1 + static_cast<std::int64_t>(rng.NextBelow(50)));
    ev.time = t;
    ev.type = rng.NextBool(0.5) ? DataplaneEventType::kArrival
                                : DataplaneEventType::kEgress;
    for (std::size_t f = 0; f < kNumFieldIds; ++f) {
      if (rng.NextBool(0.5))
        ev.fields.Set(static_cast<FieldId>(f), rng.NextBelow(6));
    }
    events.push_back(std::move(ev));
  }
  for (const auto& entry : BuildCatalog()) {
    InterpreterAblation linear;
    linear.force_linear_store = true;
    MonitorEngine a(entry.property);
    MonitorEngine b(entry.property, MonitorConfig{}, linear);
    for (const auto& ev : events) {
      a.ProcessEvent(ev);
      b.ProcessEvent(ev);
    }
    EXPECT_EQ(a.violations().size(), b.violations().size())
        << entry.property.name;
    EXPECT_EQ(a.live_instances(), b.live_instances()) << entry.property.name;
  }
}

}  // namespace
}  // namespace swmon
