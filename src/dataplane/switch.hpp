// The soft switch: programs, observers, and the event stream monitors see.
//
// A SoftSwitch hosts one forwarding program (the device under test — a
// learning switch, stateful firewall, NAT, ...) and any number of
// DataplaneObservers (monitors). For every packet it emits:
//
//   * an *arrival* event carrying the parsed fields plus metadata
//     (in_port, packet_id, switch_id), then
//   * one *egress* event carrying the (possibly rewritten) fields plus the
//     egress action — unicast forward with its out_port, flood, or DROP.
//
// Reporting drops as egress events is deliberate: the paper (Feature 5 /
// Sec 3.2) observes that real switches almost universally hide drops from
// the egress pipeline; this switch is the "ideal monitor-friendly switch",
// and the OpenFlow/OpenState/... backends reintroduce their targets' gaps.
// Link status changes are delivered as out-of-band events (Feature 8,
// multiple match).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dataplane/cost_model.hpp"
#include "event/event_queue.hpp"
#include "packet/builder.hpp"
#include "packet/parser.hpp"
#include "telemetry/metrics.hpp"

namespace swmon {

enum class DataplaneEventType : std::uint8_t {
  kArrival = 0,
  kEgress = 1,
  kLinkStatus = 2,
};

inline constexpr std::size_t kNumDataplaneEventTypes = 3;

const char* DataplaneEventTypeName(DataplaneEventType t);

/// Bit i set = DataplaneEventType(i) is relevant. See InterestSignature()
/// in monitor/features.hpp; MonitorSet uses it to pre-filter dispatch.
using EventTypeMask = std::uint8_t;

inline constexpr EventTypeMask EventTypeBit(DataplaneEventType t) {
  return static_cast<EventTypeMask>(1u << static_cast<unsigned>(t));
}
inline constexpr EventTypeMask kAllEventTypes =
    static_cast<EventTypeMask>((1u << kNumDataplaneEventTypes) - 1);

/// One observable event. `fields` always contains kSwitchId; arrivals add
/// kInPort and kPacketId; egress events add kEgressAction (and kOutPort for
/// unicast forwards) while keeping the arrival's kPacketId (Feature 5);
/// link-status events carry kLinkId and kLinkUp.
struct DataplaneEvent {
  DataplaneEventType type;
  SimTime time;
  FieldMap fields;
  /// Wire size of the packet this event concerns (0 for link events).
  /// An off-switch monitor must receive this many bytes to see the event.
  std::uint32_t packet_bytes = 0;
};

class DataplaneObserver {
 public:
  virtual ~DataplaneObserver() = default;
  virtual void OnDataplaneEvent(const DataplaneEvent& event) = 0;
  /// Batching observers (e.g. ParallelMonitorSet) buffer events between
  /// OnDataplaneEvent calls; the switch raises this at quiet points —
  /// SoftSwitch::FlushObservers(), called when an injector goes idle or
  /// before querying monitor state — so buffered events are fully
  /// delivered. Per-event observers ignore it.
  virtual void FlushEvents() {}
};

class SoftSwitch;

/// What the program decided to do with a packet.
struct ForwardDecision {
  EgressActionValue action = EgressActionValue::kDrop;
  PortId out_port = kInvalidPortId;  // required iff action == kForward
  /// Set when the program rewrote the packet (e.g. NAT): egress events and
  /// transmission use this view instead of the arrival's.
  std::optional<ParsedPacket> rewritten;

  static ForwardDecision Forward(PortId port) {
    return ForwardDecision{EgressActionValue::kForward, port, std::nullopt};
  }
  static ForwardDecision Flood() {
    return ForwardDecision{EgressActionValue::kFlood, kInvalidPortId,
                           std::nullopt};
  }
  static ForwardDecision Drop() {
    return ForwardDecision{EgressActionValue::kDrop, kInvalidPortId,
                           std::nullopt};
  }
};

/// The forwarding logic under test.
class SwitchProgram {
 public:
  virtual ~SwitchProgram() = default;
  virtual ForwardDecision OnPacket(SoftSwitch& sw, const ParsedPacket& pkt,
                                   PortId in_port) = 0;
  virtual void OnLinkStatus(SoftSwitch& sw, PortId port, bool up) {
    (void)sw, (void)port, (void)up;
  }
  virtual const char* Name() const = 0;
};

class SoftSwitch {
 public:
  /// `transmit` is invoked for each wire transmission (out_port, bytes);
  /// netsim supplies it, standalone tests may pass a collector or nothing.
  using TransmitFn = std::function<void(PortId, const Packet&)>;

  SoftSwitch(std::uint32_t switch_id, std::uint32_t num_ports,
             EventQueue& queue, CostParams params = {});
  ~SoftSwitch();

  // Not copyable/movable: observers and registry collectors hold pointers.
  SoftSwitch(const SoftSwitch&) = delete;
  SoftSwitch& operator=(const SoftSwitch&) = delete;

  void SetProgram(SwitchProgram* program) { program_ = program; }
  void SetTransmit(TransmitFn fn) { transmit_ = std::move(fn); }
  void AddObserver(DataplaneObserver* obs) { observers_.push_back(obs); }
  void RemoveObserver(DataplaneObserver* obs);

  /// Full pipeline for one arriving packet: stamp identity, parse, observe
  /// arrival, run the program, observe egress, transmit.
  void ReceivePacket(PortId in_port, Packet pkt);

  /// Program-originated packet (e.g. an ARP proxy reply). Emits an egress
  /// event with a fresh packet id and transmits.
  void EmitPacket(PortId out_port, Packet pkt);

  /// Out-of-band link status change: notifies the program and observers.
  void SetLinkStatus(PortId port, bool up);
  bool LinkUp(PortId port) const;

  /// Flush point for batching observers: call when the packet source goes
  /// idle or before reading monitor results, so buffered events (see
  /// DataplaneObserver::FlushEvents) are delivered with unchanged timeout
  /// semantics.
  void FlushObservers();

  std::uint32_t switch_id() const { return switch_id_; }
  std::uint32_t num_ports() const { return num_ports_; }
  EventQueue& queue() { return queue_; }
  const CostParams& params() const { return params_; }

  /// Publishes `dataplane.switch.<id>.{packets,table_lookups,
  /// state_table_ops,register_ops,flow_mods,controller_msgs,
  /// processing_ns}` counters into `snap`.
  void CollectInto(telemetry::Snapshot& snap) const;
  telemetry::Snapshot TelemetrySnapshot() const;

  /// Registers a snapshot-time collector and arms the per-packet modeled
  /// processing-cost histogram `dataplane.switch.<id>.packet_cost_ns`
  /// (recorded for every ReceivePacket). Pass nullptr to detach; the
  /// switch detaches itself on destruction.
  void AttachTelemetry(telemetry::MetricsRegistry* registry);

  /// Parse depth used at ingress. Default L7 (the ideal switch; backends
  /// with fixed parsing use their own shallower re-parse).
  void set_parse_depth(ParseDepth d) { parse_depth_ = d; }
  ParseDepth parse_depth() const { return parse_depth_; }

 private:
  void Observe(const DataplaneEvent& event);
  void EmitEgress(const ParsedPacket& view, PacketId id,
                  const ForwardDecision& decision,
                  std::uint32_t packet_bytes);
  FieldMap BaseMeta() const;

  std::uint32_t switch_id_;
  std::uint32_t num_ports_;
  EventQueue& queue_;
  CostParams params_;
  CostCounters counters_;
  SwitchProgram* program_ = nullptr;
  TransmitFn transmit_;
  std::vector<DataplaneObserver*> observers_;
  std::vector<bool> link_up_;
  std::uint64_t next_packet_id_ = 1;
  ParseDepth parse_depth_ = ParseDepth::kL7;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::Histogram* packet_cost_hist_ = nullptr;
  std::uint64_t collector_token_ = 0;
};

}  // namespace swmon
