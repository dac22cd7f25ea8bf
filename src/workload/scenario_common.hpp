// Shared plumbing for scenario runners.
//
// Every scenario follows the same shape: build a Network with one switch
// running the app under test, attach a MonitorSet (and optionally a
// TraceRecorder), script deterministic traffic from a seed, run the event
// queue past every monitor deadline, and hand back the outcome.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "monitor/monitor_set.hpp"
#include "netsim/network.hpp"
#include "netsim/trace.hpp"
#include "properties/scenario.hpp"

namespace swmon {

struct ScenarioOutcome {
  std::unique_ptr<MonitorSet> monitors;
  std::unique_ptr<TraceRecorder> trace;  // null unless keep_trace
  CostCounters switch_costs;
  std::size_t packets_injected = 0;
  SimTime end_time;

  std::size_t TotalViolations() const { return monitors->TotalViolations(); }

  /// Violations of one property by name (0 if the property isn't attached).
  std::size_t ViolationsOf(const std::string& property) const {
    std::size_t n = 0;
    for (const auto& v : monitors->AllViolations())
      if (v.property == property) ++n;
    return n;
  }
};

/// Options common to all scenarios.
struct ScenarioOptions {
  std::uint64_t seed = 1;
  ProvenanceLevel provenance = ProvenanceLevel::kLimited;
  bool keep_trace = false;
  /// Traffic-volume multiplier applied to the scenario's primary knob
  /// (flows / sessions / clients / rounds) by RunScenarioForProperty, so
  /// registry callers (benches) can size workloads without per-scenario
  /// config structs. 1 = the scenario's documented default volume.
  std::size_t scale = 1;
};

/// Snapshot-backed read of a switch's modeled cost totals; scenario runners
/// use it to fill ScenarioOutcome::switch_costs.
inline CostCounters SwitchCostsFromTelemetry(const SoftSwitch& sw) {
  const telemetry::Snapshot snap = sw.TelemetrySnapshot();
  const std::string prefix =
      "dataplane.switch." + std::to_string(sw.switch_id()) + ".";
  CostCounters c;
  c.packets = snap.counter(prefix + "packets");
  c.table_lookups = snap.counter(prefix + "table_lookups");
  c.state_table_ops = snap.counter(prefix + "state_table_ops");
  c.register_ops = snap.counter(prefix + "register_ops");
  c.flow_mods = snap.counter(prefix + "flow_mods");
  c.controller_msgs = snap.counter(prefix + "controller_msgs");
  c.processing_time = Duration::Nanos(
      static_cast<std::int64_t>(snap.counter(prefix + "processing_ns")));
  return c;
}

/// Test addresses: host index -> distinct MAC / IP in 10.0.0.0/16 (internal)
/// or 198.51.100.0/24 (external).
inline MacAddr TestMac(std::uint32_t i) {
  return MacAddr(0x020000000000ULL | i);
}
inline Ipv4Addr InternalIp(std::uint32_t i) {
  return Ipv4Addr(0x0a000000u + 1 + i);  // 10.0.x.y
}
inline Ipv4Addr ExternalIp(std::uint32_t i) {
  return Ipv4Addr(0xc6336400u + 1 + i);  // 198.51.100.z
}

}  // namespace swmon
