// Quickstart: monitor a stateful firewall for the paper's Sec-2.1 property.
//
//   1. Write the property with PropertyBuilder (the violation pattern:
//      "A->B seen, then B->A dropped").
//   2. Build a tiny network: one switch running a (buggy) firewall, one
//      inside host, one outside host.
//   3. Attach a monitor to the switch and run traffic (the compiled
//      bytecode engine by default; MonitorConfig::engine =
//      EngineKind::kInterpreted selects the reference interpreter — same
//      violations either way).
//   4. Read the violations.
//
// Build & run:  ./build/examples/quickstart
//
// Set SWMON_TELEMETRY_DUMP=json (or =prometheus) to print the full
// telemetry snapshot — every monitor and switch counter — on exit.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/stateful_firewall.hpp"
#include "monitor/property_builder.hpp"
#include "monitor/property_monitor.hpp"
#include "netsim/network.hpp"
#include "packet/builder.hpp"
#include "telemetry/snapshot.hpp"

using namespace swmon;

int main() {
  // --- 1. the property -------------------------------------------------
  PropertyBuilder builder(
      "fw-return-allowed",
      "After seeing traffic from internal host A to external host B, "
      "packets from B to A are not dropped (Sec 2.1)");
  const VarId A = builder.Var("A"), B = builder.Var("B");
  builder.AddStage("outbound A->B")
      .Match(PatternBuilder::Arrival().Eq(FieldId::kInPort, 1).Build())
      .Bind(A, FieldId::kIpSrc)
      .Bind(B, FieldId::kIpDst);
  builder.AddStage("return B->A dropped")
      .Match(PatternBuilder::Egress()
                 .EqVar(FieldId::kIpSrc, B)
                 .EqVar(FieldId::kIpDst, A)
                 .Dropped()
                 .Build());
  Property property = std::move(builder).Build();
  std::printf("%s\n", property.ToString().c_str());

  // --- 2. the network under test ---------------------------------------
  Network net;
  SoftSwitch& sw = net.AddSwitch(/*switch_id=*/1, /*ports=*/2);
  FirewallConfig fw;
  fw.internal_ports = {PortId{1}};
  fw.external_port = PortId{2};
  fw.fault = FirewallFault::kDropEstablishedReturn;  // the bug to catch
  StatefulFirewallApp firewall(fw);
  sw.SetProgram(&firewall);

  Host& alice = net.AddHost("alice", MacAddr(0x02, 0, 0, 0, 0, 1),
                            Ipv4Addr(10, 0, 0, 1));
  Host& bob = net.AddHost("bob", MacAddr(0x02, 0, 0, 0, 0, 2),
                          Ipv4Addr(198, 51, 100, 1));
  net.Attach(1, PortId{1}, alice);
  net.Attach(1, PortId{2}, bob);

  // --- 3. attach the monitor and run traffic ---------------------------
  // CreatePropertyMonitor picks the engine: compiled unless
  // MonitorConfig::engine says otherwise.
  auto monitor_ptr = CreatePropertyMonitor(property);
  PropertyMonitor& monitor = *monitor_ptr;
  sw.AddObserver(&monitor);

  // alice opens a connection; bob replies — which the buggy firewall drops.
  net.SendFromHost(alice,
                   BuildTcp(alice.mac(), bob.mac(), alice.ip(), bob.ip(),
                            12345, 443, kTcpSyn),
                   SimTime::Zero() + Duration::Millis(1));
  net.SendFromHost(bob,
                   BuildTcp(bob.mac(), alice.mac(), bob.ip(), alice.ip(), 443,
                            12345, kTcpSyn | kTcpAck),
                   SimTime::Zero() + Duration::Millis(5));
  net.Run();

  // --- 4. the verdict ---------------------------------------------------
  // All counters — the engine's and the switch's — read through one
  // point-in-time snapshot.
  telemetry::Snapshot snap;
  monitor.CollectInto(snap, property.name);
  sw.CollectInto(snap);
  std::printf("events seen: %llu, live instances: %zu\n",
              static_cast<unsigned long long>(
                  snap.counter("monitor.engine.fw-return-allowed.events")),
              monitor.live_instances());
  for (const auto& v : monitor.violations())
    std::printf("%s\n", v.ToString().c_str());
  std::printf(monitor.violations().empty()
                  ? "no violations — the firewall behaved\n"
                  : "\nthe monitor caught the buggy firewall red-handed\n");

  if (const char* dump = std::getenv("SWMON_TELEMETRY_DUMP")) {
    if (std::strcmp(dump, "prometheus") == 0)
      std::printf("\n%s", snap.ToPrometheusText().c_str());
    else
      std::printf("\n%s\n", snap.ToJson().c_str());
  }
  return monitor.violations().empty() ? 1 : 0;
}
