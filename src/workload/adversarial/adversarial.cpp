#include "workload/adversarial/adversarial.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "packet/dhcp.hpp"
#include "packet/packet.hpp"
#include "properties/catalog.hpp"
#include "properties/scenario.hpp"

namespace swmon {
namespace {

constexpr std::uint64_t kTcp = static_cast<std::uint64_t>(IpProto::kTcp);
constexpr std::uint64_t kUdp = static_cast<std::uint64_t>(IpProto::kUdp);

std::uint64_t Msg(DhcpMsgType t) { return static_cast<std::uint64_t>(t); }

// Address planes kept disjoint so a flood key can never collide with (and
// thereby refresh) a victim instance.
std::uint64_t VictimIp(std::size_t i) { return 0x0a000100ull + i; }
std::uint64_t VictimPeerIp(std::size_t i) { return 0xc6336400ull + i; }
std::uint64_t AttackerIp(std::size_t j) { return 0x0a200000ull + j; }
std::uint64_t AttackerPeerIp(std::size_t j) { return 0xcb007100ull + j; }
std::uint64_t VictimMac(std::size_t i) { return 0x020000100000ull + i; }
std::uint64_t AttackerMac(std::size_t j) { return 0x020000900000ull + j; }

/// Event-stream builder: strictly increasing timestamps (ProcessEvent
/// requires monotone time) with seeded jitter so interleavings are
/// realistic but reproducible.
class StreamBuilder {
 public:
  explicit StreamBuilder(std::uint64_t seed) : rng_(seed) {}

  SimTime now() const { return t_; }
  Rng& rng() { return rng_; }

  /// Advances time by `step` plus up to 20% seeded jitter.
  void Advance(Duration step) {
    const std::int64_t ns = step.nanos();
    const std::int64_t jitter =
        ns > 4 ? static_cast<std::int64_t>(rng_.NextBelow(
                     static_cast<std::uint64_t>(ns / 4)))
               : 0;
    t_ = t_ + Duration::Nanos(ns + jitter);
  }

  /// Jumps to an absolute time (no-op if already past it).
  void AdvanceTo(SimTime target) {
    if (target.nanos() > t_.nanos()) t_ = target;
  }

  DataplaneEvent& Emit(DataplaneEventType type) {
    events_.push_back(DataplaneEvent{type, t_, FieldMap{}, 100});
    return events_.back();
  }

  std::vector<DataplaneEvent> Take() { return std::move(events_); }

 private:
  Rng rng_;
  SimTime t_ = SimTime::Zero();
  std::vector<DataplaneEvent> events_;
};

Duration AttackGap(const AdversarialParams& ap) {
  const std::uint64_t pps = ap.attack_pps == 0 ? 1 : ap.attack_pps;
  return Duration::Nanos(
      static_cast<std::int64_t>(1'000'000'000ull / pps) + 1);
}

}  // namespace

// ------------------------------------------------------- dhcp_starvation

AdversarialStream DhcpStarvationStream(const AdversarialParams& ap) {
  const ScenarioParams p;
  AdversarialStream s;
  s.name = "dhcp_starvation";
  s.property = DhcpReplyDeadline(p);
  s.planted = ap.victims;

  StreamBuilder b(ap.seed * 0x9E3779B97F4A7C15ull + 1);

  // Victims: REQUESTs the (overwhelmed) server never answers. Their
  // reply deadlines are the earliest in the stream.
  for (std::size_t i = 0; i < ap.victims; ++i) {
    b.Advance(Duration::Micros(200));
    DataplaneEvent& ev = b.Emit(DataplaneEventType::kArrival);
    ev.fields.Set(FieldId::kInPort, 1);
    ev.fields.Set(FieldId::kDhcpMsgType, Msg(DhcpMsgType::kRequest));
    ev.fields.Set(FieldId::kDhcpChaddr, VictimMac(i));
    ev.fields.Set(FieldId::kDhcpXid, 0x1000 + i);
  }

  // Starvation flood: distinct (chaddr, xid) per attacker, deadlines
  // strictly behind every victim's.
  const Duration gap = AttackGap(ap);
  std::vector<SimTime> sent(ap.attackers);
  for (std::size_t j = 0; j < ap.attackers; ++j) {
    b.Advance(gap);
    sent[j] = b.now();
    DataplaneEvent& ev = b.Emit(DataplaneEventType::kArrival);
    ev.fields.Set(FieldId::kInPort, 1);
    ev.fields.Set(FieldId::kDhcpMsgType, Msg(DhcpMsgType::kRequest));
    ev.fields.Set(FieldId::kDhcpChaddr, AttackerMac(j));
    ev.fields.Set(FieldId::kDhcpXid, 0x90000 + j);
  }

  // The server works through the attacker queue inside each 2s window, so
  // the oracle never counts an attacker timeout — only the victims are
  // real violations.
  for (std::size_t j = 0; j < ap.attackers; ++j) {
    b.AdvanceTo(sent[j] + Duration::Millis(800));
    b.Advance(Duration::Micros(50));
    DataplaneEvent& ev = b.Emit(DataplaneEventType::kEgress);
    ev.fields.Set(
        FieldId::kEgressAction,
        static_cast<std::uint64_t>(EgressActionValue::kForward));
    ev.fields.Set(FieldId::kDhcpMsgType, Msg(DhcpMsgType::kAck));
    ev.fields.Set(FieldId::kDhcpChaddr, AttackerMac(j));
    ev.fields.Set(FieldId::kDhcpXid, 0x90000 + j);
  }

  s.horizon = b.now() + p.dhcp_reply_deadline + Duration::Seconds(1);
  s.events = b.Take();
  return s;
}

// ------------------------------------------------------------ fw_evasion

AdversarialStream FirewallEvasionStream(const AdversarialParams& ap) {
  const ScenarioParams p;
  AdversarialStream s;
  s.name = "fw_evasion";
  s.property = FirewallReturnNotDroppedTimeout(p);
  s.planted = ap.victims;

  StreamBuilder b(ap.seed * 0x9E3779B97F4A7C15ull + 2);
  const std::uint64_t inside = ToU64(p.inside_port);

  // Victims establish outbound flows first; each opens a 30s window.
  for (std::size_t i = 0; i < ap.victims; ++i) {
    b.Advance(Duration::Millis(1));
    DataplaneEvent& ev = b.Emit(DataplaneEventType::kArrival);
    ev.fields.Set(FieldId::kInPort, inside);
    ev.fields.Set(FieldId::kIpSrc, VictimIp(i));
    ev.fields.Set(FieldId::kIpDst, VictimPeerIp(i));
    ev.fields.Set(FieldId::kIpProto, kTcp);
  }

  // Scan flood: every packet is a fresh (src, dst) pair, so every packet
  // is a fresh instance with a deadline behind the victims'. A sprinkle
  // of re-sent pairs keeps the attackers LRU-hot as well.
  const Duration gap = AttackGap(ap);
  for (std::size_t j = 0; j < ap.attackers; ++j) {
    b.Advance(gap);
    DataplaneEvent& ev = b.Emit(DataplaneEventType::kArrival);
    ev.fields.Set(FieldId::kInPort, inside);
    ev.fields.Set(FieldId::kIpSrc, AttackerIp(j));
    ev.fields.Set(FieldId::kIpDst, AttackerPeerIp(j));
    ev.fields.Set(FieldId::kIpProto, kTcp);
    if (j > 0 && b.rng().NextBool(0.25)) {
      const std::size_t k = b.rng().NextBelow(j);
      b.Advance(Duration::Micros(10));
      DataplaneEvent& re = b.Emit(DataplaneEventType::kArrival);
      re.fields.Set(FieldId::kInPort, inside);
      re.fields.Set(FieldId::kIpSrc, AttackerIp(k));
      re.fields.Set(FieldId::kIpDst, AttackerPeerIp(k));
      re.fields.Set(FieldId::kIpProto, kTcp);
    }
  }

  // The violating suffix: the firewall drops the victims' return traffic
  // well inside their windows. An evicted victim instance misses this.
  for (std::size_t i = 0; i < ap.victims; ++i) {
    b.Advance(Duration::Millis(2));
    DataplaneEvent& ev = b.Emit(DataplaneEventType::kEgress);
    ev.fields.Set(
        FieldId::kEgressAction,
        static_cast<std::uint64_t>(EgressActionValue::kDrop));
    ev.fields.Set(FieldId::kIpSrc, VictimPeerIp(i));
    ev.fields.Set(FieldId::kIpDst, VictimIp(i));
    ev.fields.Set(FieldId::kIpProto, kTcp);
  }

  s.horizon = b.now() + p.firewall_timeout + Duration::Seconds(1);
  s.events = b.Take();
  return s;
}

// ------------------------------------------------------- portknock_storm

AdversarialStream PortKnockStormStream(const AdversarialParams& ap) {
  const ScenarioParams p;
  AdversarialStream s;
  s.name = "portknock_storm";
  s.property = PortKnockInvalidation(p);
  s.planted = ap.victims;

  StreamBuilder b(ap.seed * 0x9E3779B97F4A7C15ull + 3);
  const std::uint64_t client = ToU64(p.lb_client_port);
  const auto knock = [&](std::uint64_t src, std::uint16_t port) {
    DataplaneEvent& ev = b.Emit(DataplaneEventType::kArrival);
    ev.fields.Set(FieldId::kInPort, client);
    ev.fields.Set(FieldId::kIpProto, kUdp);
    ev.fields.Set(FieldId::kIpSrc, src);
    ev.fields.Set(FieldId::kL4DstPort, port);
  };

  // Victims start their knock sequences...
  for (std::size_t i = 0; i < ap.victims; ++i) {
    b.Advance(Duration::Micros(500));
    knock(VictimIp(i), p.knock1);
  }

  // ...then the scan storm floods stage 0 with distinct sources. Some
  // scanners also probe a wrong port in the knock region, so they advance
  // a stage and stay recently-touched.
  const Duration gap = AttackGap(ap);
  for (std::size_t j = 0; j < ap.attackers; ++j) {
    b.Advance(gap);
    knock(AttackerIp(j), p.knock1);
    if (b.rng().NextBool(0.5)) {
      b.Advance(Duration::Micros(20));
      knock(AttackerIp(j), static_cast<std::uint16_t>(p.knock1 + 3));
    }
  }

  // Victims finish: wrong guess (invalidates), full sequence anyway, and
  // the gate opens — the violation the property exists to catch. The
  // property has no windows, so no deadline-aware policy can distinguish
  // these instances from the scanners'.
  for (std::size_t i = 0; i < ap.victims; ++i) {
    b.Advance(Duration::Millis(1));
    knock(VictimIp(i), static_cast<std::uint16_t>(p.knock1 + 3));
    b.Advance(Duration::Micros(100));
    knock(VictimIp(i), p.knock2);
    b.Advance(Duration::Micros(100));
    knock(VictimIp(i), p.knock3);
    b.Advance(Duration::Micros(100));
    DataplaneEvent& ev = b.Emit(DataplaneEventType::kEgress);
    ev.fields.Set(
        FieldId::kEgressAction,
        static_cast<std::uint64_t>(EgressActionValue::kForward));
    ev.fields.Set(FieldId::kIpProto, kTcp);
    ev.fields.Set(FieldId::kIpSrc, VictimIp(i));
    ev.fields.Set(FieldId::kL4DstPort, p.protected_port);
  }

  s.horizon = b.now() + Duration::Seconds(1);
  s.events = b.Take();
  return s;
}

// ------------------------------------------------------------- nat_churn

AdversarialStream NatChurnStream(const AdversarialParams& ap) {
  const ScenarioParams p;
  AdversarialStream s;
  s.name = "nat_churn";
  s.property = NatReverseTranslation(p);
  s.planted = ap.victims;

  StreamBuilder b(ap.seed * 0x9E3779B97F4A7C15ull + 4);
  const std::uint64_t inside = ToU64(p.inside_port);
  const std::uint64_t outside = ToU64(p.outside_port);
  std::uint64_t next_pid = 1;

  // One outbound translation: arrival inside + egress with the NAT's
  // rewritten source. Parks the created instance at the return-traffic
  // stage, holding a binding environment forever (no window).
  const auto outbound = [&](std::uint64_t src, std::uint64_t sport,
                            std::uint64_t dst, std::uint64_t dport,
                            std::uint64_t ext_port) {
    const std::uint64_t pid = next_pid++;
    DataplaneEvent& in = b.Emit(DataplaneEventType::kArrival);
    in.fields.Set(FieldId::kInPort, inside);
    in.fields.Set(FieldId::kIpSrc, src);
    in.fields.Set(FieldId::kL4SrcPort, sport);
    in.fields.Set(FieldId::kIpDst, dst);
    in.fields.Set(FieldId::kL4DstPort, dport);
    in.fields.Set(FieldId::kPacketId, pid);
    b.Advance(Duration::Micros(5));
    DataplaneEvent& out = b.Emit(DataplaneEventType::kEgress);
    out.fields.Set(
        FieldId::kEgressAction,
        static_cast<std::uint64_t>(EgressActionValue::kForward));
    out.fields.Set(FieldId::kPacketId, pid);
    out.fields.Set(FieldId::kIpSrc, 0xcb007101ull);  // NAT public address
    out.fields.Set(FieldId::kL4SrcPort, ext_port);
    out.fields.Set(FieldId::kIpDst, dst);
    out.fields.Set(FieldId::kL4DstPort, dport);
  };

  // Victims' outbound half first (their translations are the oldest state
  // in the NAT monitor's table).
  for (std::size_t i = 0; i < ap.victims; ++i) {
    b.Advance(Duration::Millis(1));
    outbound(VictimIp(i), 4000 + i, VictimPeerIp(i), 443, 30000 + i);
  }

  // Table churn: every flood flow runs its outbound half and goes silent.
  const Duration gap = AttackGap(ap);
  for (std::size_t j = 0; j < ap.attackers; ++j) {
    b.Advance(gap);
    outbound(AttackerIp(j), 5000 + (j % 1000), AttackerPeerIp(j), 80,
             40000 + j);
  }

  // Victims' return traffic comes back and the (faulty) NAT rewrites it
  // to the wrong internal destination — a violation only a still-resident
  // instance can see.
  for (std::size_t i = 0; i < ap.victims; ++i) {
    b.Advance(Duration::Millis(1));
    const std::uint64_t pid = next_pid++;
    DataplaneEvent& in = b.Emit(DataplaneEventType::kArrival);
    in.fields.Set(FieldId::kInPort, outside);
    in.fields.Set(FieldId::kIpSrc, VictimPeerIp(i));
    in.fields.Set(FieldId::kL4SrcPort, 443);
    in.fields.Set(FieldId::kIpDst, 0xcb007101ull);
    in.fields.Set(FieldId::kL4DstPort, 30000 + i);
    in.fields.Set(FieldId::kPacketId, pid);
    b.Advance(Duration::Micros(5));
    DataplaneEvent& out = b.Emit(DataplaneEventType::kEgress);
    out.fields.Set(
        FieldId::kEgressAction,
        static_cast<std::uint64_t>(EgressActionValue::kForward));
    out.fields.Set(FieldId::kPacketId, pid);
    out.fields.Set(FieldId::kIpSrc, VictimPeerIp(i));
    out.fields.Set(FieldId::kL4SrcPort, 443);
    out.fields.Set(FieldId::kIpDst, VictimIp(i));
    out.fields.Set(FieldId::kL4DstPort, 9999);  // != the original port
  }

  s.horizon = b.now() + Duration::Seconds(1);
  s.events = b.Take();
  return s;
}

// -------------------------------------------------------------- registry

const std::vector<std::string>& AdversarialStreamNames() {
  static const std::vector<std::string> kNames = {
      "dhcp_starvation", "portknock_storm", "nat_churn", "fw_evasion"};
  return kNames;
}

AdversarialStream MakeAdversarialStream(const std::string& name,
                                        const AdversarialParams& ap) {
  if (name == "dhcp_starvation") return DhcpStarvationStream(ap);
  if (name == "portknock_storm") return PortKnockStormStream(ap);
  if (name == "nat_churn") return NatChurnStream(ap);
  if (name == "fw_evasion") return FirewallEvasionStream(ap);
  SWMON_ASSERT_MSG(false, "unknown adversarial stream");
  return {};
}

// ---------------------------------------------------------------- recall

namespace {

/// Observable identity of a violation: what a downstream consumer could
/// distinguish. Instance ids are excluded on purpose (see header).
std::string ViolationSignature(const Violation& v) {
  std::string sig = v.property;
  sig += '#';
  sig += std::to_string(v.trigger_stage_index);
  sig += '@';
  sig += std::to_string(v.time.nanos());
  std::vector<std::pair<std::string, std::uint64_t>> bindings = v.bindings;
  std::sort(bindings.begin(), bindings.end());
  for (const auto& [name, value] : bindings) {
    sig += '|';
    sig += name;
    sig += '=';
    sig += std::to_string(value);
  }
  return sig;
}

std::unordered_map<std::string, std::size_t> SignatureMultiset(
    const std::vector<Violation>& vs) {
  std::unordered_map<std::string, std::size_t> m;
  for (const Violation& v : vs) ++m[ViolationSignature(v)];
  return m;
}

}  // namespace

RecallReport MeasureRecall(const AdversarialStream& stream,
                           const MonitorConfig& bounded) {
  MonitorConfig bcfg = bounded;
  if (bcfg.provenance == ProvenanceLevel::kNone)
    bcfg.provenance = ProvenanceLevel::kLimited;  // signatures need bindings

  MonitorConfig ocfg = bcfg;
  ocfg.eviction = EvictionConfig{};

  const auto run = [&stream](const MonitorConfig& cfg) {
    auto monitor = CreatePropertyMonitor(stream.property, cfg);
    for (const DataplaneEvent& ev : stream.events) monitor->ProcessEvent(ev);
    monitor->AdvanceTime(stream.horizon);
    return monitor;
  };

  const auto oracle = run(ocfg);
  const auto target = run(bcfg);

  RecallReport r;
  r.oracle_violations = oracle->violations().size();

  telemetry::Snapshot snap;
  target->CollectInto(snap, "adv");
  r.evictions = snap.counter("monitor.engine.adv.instances_evicted");

  auto want = SignatureMultiset(oracle->violations());
  for (const Violation& v : target->violations()) {
    const auto it = want.find(ViolationSignature(v));
    if (it != want.end() && it->second > 0) {
      --it->second;
      ++r.detected;
    } else {
      ++r.spurious;
    }
  }
  return r;
}

}  // namespace swmon
