#include "streams.hpp"

#include "common/byte_io.hpp"
#include "common/rng.hpp"
#include "netsim/trace_io.hpp"
#include "properties/catalog.hpp"

namespace perfbench {

using swmon::DataplaneEvent;
using swmon::DataplaneEventType;
using swmon::Duration;
using swmon::EgressActionValue;
using swmon::FieldId;
using swmon::Rng;
using swmon::SimTime;

namespace {

using Emit = std::function<void(const DataplaneEvent&)>;

SimTime AtMicros(std::uint64_t us) {
  return SimTime::Zero() + Duration::Micros(static_cast<std::int64_t>(us));
}

/// bench_parallel's mixed-scenario stream: TCP flows with return egress
/// (some dropped), ARP chatter, DHCP handshakes, FTP control and link flaps
/// over 48x48 hosts on a 100 us clock, so every Table-1 family sees events
/// it reacts to and ARP/DHCP deadlines lapse mid-stream.
void MixedStream(std::uint64_t seed, std::size_t count, const Emit& emit) {
  Rng rng(seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> flows;
  for (std::size_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    ev.time = AtMicros(100 * (i + 1));
    const auto roll = rng.NextBelow(100);
    if (roll < 40) {  // TCP arrival
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kPacketId, i + 1);
      const std::uint64_t src = 1000 + rng.NextBelow(48);
      const std::uint64_t dst = 2000 + rng.NextBelow(48);
      ev.fields.Set(FieldId::kIpSrc, src);
      ev.fields.Set(FieldId::kIpDst, dst);
      ev.fields.Set(FieldId::kIpProto, 6);
      ev.fields.Set(FieldId::kL4SrcPort, 30000 + rng.NextBelow(256));
      ev.fields.Set(FieldId::kL4DstPort, rng.NextBool(0.5) ? 80 : 443);
      ev.fields.Set(FieldId::kEthSrc, 0xa0 + rng.NextBelow(16));
      if (flows.size() < 64) flows.emplace_back(src, dst);
    } else if (roll < 55) {  // egress (some of it return traffic / drops)
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kPacketId, i + 1);
      if (!flows.empty() && rng.NextBool(0.3)) {
        const auto& [src, dst] = flows[rng.NextBelow(flows.size())];
        ev.fields.Set(FieldId::kIpSrc, dst);
        ev.fields.Set(FieldId::kIpDst, src);
      } else {
        ev.fields.Set(FieldId::kIpSrc, 2000 + rng.NextBelow(48));
        ev.fields.Set(FieldId::kIpDst, 1000 + rng.NextBelow(48));
      }
      ev.fields.Set(FieldId::kOutPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kEgressAction,
                    static_cast<std::uint64_t>(
                        rng.NextBool(0.1) ? EgressActionValue::kDrop
                                          : EgressActionValue::kForward));
    } else if (roll < 70) {  // ARP
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kArpOp, rng.NextBool(0.5) ? 1 : 2);
      ev.fields.Set(FieldId::kArpSenderIp, 10 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kArpTargetIp, 10 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kArpSenderMac, 0xb0 + rng.NextBelow(24));
    } else if (roll < 85) {  // DHCP
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kDhcpMsgType, 1 + rng.NextBelow(5));
      ev.fields.Set(FieldId::kDhcpChaddr, 0xc0 + rng.NextBelow(16));
      ev.fields.Set(FieldId::kDhcpXid, 1 + rng.NextBelow(64));
      ev.fields.Set(FieldId::kDhcpYiaddr, 300 + rng.NextBelow(16));
    } else if (roll < 95) {  // FTP control
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kIpSrc, 1000 + rng.NextBelow(48));
      ev.fields.Set(FieldId::kIpDst, 2000 + rng.NextBelow(48));
      ev.fields.Set(FieldId::kL4DstPort, 21);
      ev.fields.Set(FieldId::kFtpMsgKind, rng.NextBelow(3));
      ev.fields.Set(FieldId::kFtpDataAddr, 1000 + rng.NextBelow(48));
      ev.fields.Set(FieldId::kFtpDataPort, 5000 + rng.NextBelow(64));
    } else {  // link flap
      ev.type = DataplaneEventType::kLinkStatus;
      ev.fields.Set(FieldId::kLinkId, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kLinkUp, rng.NextBool(0.5) ? 1 : 0);
    }
    emit(ev);
  }
}

/// bench_batch's keyed_arrival shape — TCP arrivals over a 256x256x512
/// flow pool on a 1 us clock — plus one unsolicited ARP reply egress per
/// ~400 events, each for a fresh address. Those replies are the only
/// violations (dhcparp-no-direct-reply), so detection latency is sampled
/// while the per-event cost stays that of ingest and dispatch.
void KeyedStream(std::uint64_t seed, std::size_t count, const Emit& emit) {
  Rng rng(seed);
  std::uint64_t next_address = 0x0a000001;
  for (std::size_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    ev.time = AtMicros(i + 1);
    if (rng.NextBelow(400) == 0) {
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kOutPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kArpOp, 2);
      ev.fields.Set(FieldId::kArpSenderIp, next_address++);
      ev.fields.Set(FieldId::kArpSenderMac, 0xb0 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kEgressAction,
                    static_cast<std::uint64_t>(EgressActionValue::kForward));
      emit(ev);
      continue;
    }
    ev.type = DataplaneEventType::kArrival;
    ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
    ev.fields.Set(FieldId::kPacketId, i + 1);
    ev.fields.Set(FieldId::kIpSrc, 1000 + rng.NextBelow(256));
    ev.fields.Set(FieldId::kIpDst, 2000 + rng.NextBelow(256));
    ev.fields.Set(FieldId::kIpProto, 6);
    ev.fields.Set(FieldId::kL4SrcPort, 30000 + rng.NextBelow(512));
    ev.fields.Set(FieldId::kL4DstPort, rng.NextBool(0.5) ? 80 : 443);
    emit(ev);
  }
}

/// Stateful-firewall traffic: 70% outbound arrivals on the inside port,
/// each a fresh (src, dst) pair from a 2^24 x 2^24 space, so live
/// instances grow with the stream; 30% return egress for one of the last
/// 4096 flows, 2% of it dropped — each such drop is a violation.
void FirewallStream(std::uint64_t seed, std::size_t count, const Emit& emit) {
  Rng rng(seed);
  constexpr std::size_t kRecent = 4096;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> recent;
  recent.reserve(kRecent);
  std::size_t next_slot = 0;
  for (std::size_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    ev.time = AtMicros(i + 1);
    ev.fields.Set(FieldId::kPacketId, i + 1);
    ev.fields.Set(FieldId::kIpProto, 6);
    if (recent.empty() || rng.NextBelow(100) < 70) {
      const std::uint64_t src = 1 + rng.NextBelow(1u << 24);
      const std::uint64_t dst = 1 + rng.NextBelow(1u << 24);
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1);
      ev.fields.Set(FieldId::kIpSrc, src);
      ev.fields.Set(FieldId::kIpDst, dst);
      if (recent.size() < kRecent) {
        recent.emplace_back(src, dst);
      } else {
        recent[next_slot] = {src, dst};
        next_slot = (next_slot + 1) % kRecent;
      }
    } else {
      const auto& [src, dst] = recent[rng.NextBelow(recent.size())];
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kIpSrc, dst);
      ev.fields.Set(FieldId::kIpDst, src);
      ev.fields.Set(FieldId::kOutPort, 1);
      ev.fields.Set(FieldId::kEgressAction,
                    static_cast<std::uint64_t>(
                        rng.NextBelow(100) < 2 ? EgressActionValue::kDrop
                                               : EgressActionValue::kForward));
    }
    emit(ev);
  }
}

std::vector<swmon::Property> Table1() {
  std::vector<swmon::Property> props;
  for (const swmon::CatalogEntry& e : swmon::BuildCatalog())
    if (e.in_table1) props.push_back(e.property);
  return props;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> w(3);
  // Engine-bound: the unindexed abort scans and timers of the 13 Table-1
  // properties dominate; ~1.5% of events violate.
  w[0].name = "catalog_mixed";
  w[0].properties = Table1();
  w[0].events = 80000;
  w[0].rate_eps = 12000;
  w[0].generate = MixedStream;

  // Ingest-bound: keyed TCP arrivals the 13 properties mostly filter, so
  // socket read, decode, pump and dispatch dominate.
  w[1].name = "edge_keyed";
  w[1].properties = Table1();
  w[1].events = 600000;
  w[1].rate_eps = 200000;
  w[1].generate = KeyedStream;

  // The only ParallelMonitorSet path: fw-return-not-dropped sharded by
  // instance over 2 workers, with >1e5 live instances.
  w[2].name = "fw_flows_sharded";
  w[2].properties = {swmon::FirewallReturnNotDropped()};
  w[2].workers = 2;
  w[2].shard_mode = swmon::ShardMode::kInstance;
  w[2].events = 400000;
  w[2].rate_eps = 200000;
  w[2].generate = FirewallStream;
  return w;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<swmon::Property> LayerProperties() {
  std::vector<swmon::Property> props = Table1();
  props.push_back(swmon::FirewallReturnNotDropped());
  return props;
}

EncodedStream Encode(const Workload& w, std::uint64_t seed, std::size_t n) {
  EncodedStream s;
  s.ends.reserve(n);
  s.times_ns.reserve(n);
  swmon::ByteWriter out;
  const std::uint8_t magic[4] = {'S', 'W', 'M', 'T'};
  out.WriteBytes(magic);
  out.WriteU32LE(2);
  out.WriteU64LE(n);
  w.generate(seed, n, [&](const DataplaneEvent& ev) {
    swmon::EncodeTraceEvent(out, ev);
    s.ends.push_back(out.size());
    s.times_ns.push_back(ev.time.nanos());
  });
  s.bytes = out.Take();
  return s;
}

bool ForEachEvent(
    const EncodedStream& s,
    const std::function<void(const swmon::DataplaneEvent&)>& fn) {
  swmon::TraceEventDecoder decoder;
  constexpr std::size_t kChunk = 1 << 16;
  std::size_t decoded = 0;
  DataplaneEvent ev;
  for (std::size_t off = EncodedStream::kHeaderBytes; off < s.bytes.size();
       off += kChunk) {
    decoder.Feed(s.bytes.data() + off,
                 std::min(kChunk, s.bytes.size() - off));
    swmon::TraceEventDecoder::Result r;
    while ((r = decoder.Next(ev)) ==
           swmon::TraceEventDecoder::Result::kEvent) {
      fn(ev);
      ++decoded;
    }
    if (r == swmon::TraceEventDecoder::Result::kCorrupt) return false;
  }
  return decoded == s.size() && decoder.pending_bytes() == 0;
}

}  // namespace perfbench
