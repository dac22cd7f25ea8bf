// E15 — state exhaustion as an attack surface (ROADMAP item 3), and E16's
// abort slope: per-event cost against live-instance count under
// abort-shaped traffic.
//
// Sec 3.3 worries that "the amount of state the switch must maintain"
// bounds what a switch monitor can hold; the adversarial workload family
// (src/workload/adversarial) weaponizes that bound: floods of distinct
// stage-0 keys push a victim instance out of a capped store before its
// violating suffix arrives. This bench sweeps recall vs. memory cap vs.
// attack rate for every eviction policy over every adversarial stream and
// records the curves as BENCH_adversarial.json.
//
// The abort-slope section grows ftp-data-port and dhcp-reply-deadline to
// 1k..64k live instances, then replays traffic whose every event is
// abort-shaped (a superseding PORT command; a DHCP ACK followed by the
// client's next REQUEST), holding the live count constant. Two target
// spreads: the attack aims at random live clients ("all": each event
// also touches state the size of the live set, so past L2 it pays cache
// misses), or at a fixed 1k of them ("1k": the same traffic whatever the
// live count, so any growth is what the other live instances cost). With
// indexed aborts (DESIGN.md 5m) the "1k" curve is flat; an abort pass
// that walks the stage grows linearly with the live count on both.
//
// SWMON_BENCH_TINY=1 runs the CI smoke gates instead of the full sweep:
//   1. pay-for-what-you-use — the unbounded default must match the oracle
//      bit-for-bit with zero evictions, and a never-binding cap must not
//      cost more than 1.5x the caps-off path (caps off must cost ~0, so
//      the bench_dispatch numbers stay honest);
//   2. mitigation — on the evasion streams with deadlines, creation-order
//      recall must be strictly below timeout-priority recall;
//   3. abort slope — in both engines, the same 1k-target abort traffic
//      must cost at most 1.5x per event with 16x the live instances.
// The timing gates compare the median of interleaved A/B pair ratios
// (bench::PairedAB). Any gate failure exits 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "monitor/eviction.hpp"
#include "monitor/property_monitor.hpp"
#include "packet/dhcp.hpp"
#include "packet/ftp.hpp"
#include "properties/catalog.hpp"
#include "workload/adversarial/adversarial.hpp"

namespace swmon {
namespace {

constexpr int kGatePairs = 31;

/// Seconds of one full stream replay (events + AdvanceTime) under `cfg`;
/// building the monitor is not timed.
double ReplaySeconds(const AdversarialStream& stream,
                     const MonitorConfig& cfg) {
  auto monitor = CreatePropertyMonitor(stream.property, cfg);
  return bench::Seconds([&] {
    for (const DataplaneEvent& ev : stream.events) monitor->ProcessEvent(ev);
    monitor->AdvanceTime(stream.horizon);
  });
}

/// An abort-slope workload: `setup` creates `live` instances, `attack` is
/// abort-shaped traffic that discharges and re-creates them, so the live
/// count holds while the abort pass runs.
struct SlopeStream {
  Property property;
  std::vector<DataplaneEvent> setup;
  std::vector<DataplaneEvent> attack;
};

DataplaneEvent At(DataplaneEventType type, std::uint64_t us) {
  DataplaneEvent ev;
  ev.type = type;
  ev.time = SimTime::Zero() + Duration::Micros(static_cast<std::int64_t>(us));
  return ev;
}

/// ftp-data-port: `live` clients each announce a data port to one server;
/// the attack is a stream of PORT commands superseding the announcements
/// of random clients among the first `targets` (each aborts one instance
/// and creates its successor).
SlopeStream FtpSlope(std::size_t live, std::size_t targets, std::size_t attack,
                     std::uint64_t seed) {
  SlopeStream s{FtpDataPortMatchesControl(), {}, {}};
  const auto port = [&](std::uint64_t us, std::uint64_t client,
                        std::uint64_t data_port) {
    DataplaneEvent ev = At(DataplaneEventType::kArrival, us);
    ev.fields.Set(FieldId::kFtpMsgKind,
                  static_cast<std::uint64_t>(FtpMsgKind::kPortCommand));
    ev.fields.Set(FieldId::kIpSrc, 1'000'000 + client);
    ev.fields.Set(FieldId::kIpDst, 7);
    ev.fields.Set(FieldId::kFtpDataPort, data_port);
    return ev;
  };
  for (std::size_t i = 0; i < live; ++i) s.setup.push_back(port(i, i, 5000));
  Rng rng(seed);
  for (std::size_t j = 0; j < attack; ++j)
    s.attack.push_back(
        port(live + j, rng.NextBelow(targets), 6000 + j % 1000));
  return s;
}

/// dhcp-reply-deadline: `live` clients wait for an answer to a REQUEST;
/// the attack pairs an ACK for a random client among the first `targets`
/// (aborting its instance) with that client's next REQUEST, all inside the
/// 2 s window.
SlopeStream DhcpSlope(std::size_t live, std::size_t targets,
                      std::size_t attack, std::uint64_t seed) {
  SlopeStream s{DhcpReplyDeadline(), {}, {}};
  const auto dhcp = [&](DataplaneEventType type, std::uint64_t us,
                        DhcpMsgType msg, std::uint64_t client) {
    DataplaneEvent ev = At(type, us);
    ev.fields.Set(FieldId::kDhcpMsgType, static_cast<std::uint64_t>(msg));
    ev.fields.Set(FieldId::kDhcpChaddr, client);
    ev.fields.Set(FieldId::kDhcpXid, 1);
    return ev;
  };
  for (std::size_t i = 0; i < live; ++i)
    s.setup.push_back(
        dhcp(DataplaneEventType::kArrival, i, DhcpMsgType::kRequest, i));
  Rng rng(seed);
  for (std::size_t j = 0; j + 1 < attack; j += 2) {
    const std::uint64_t client = rng.NextBelow(targets);
    s.attack.push_back(dhcp(DataplaneEventType::kEgress, live + j,
                            DhcpMsgType::kAck, client));
    s.attack.push_back(dhcp(DataplaneEventType::kArrival, live + j + 1,
                            DhcpMsgType::kRequest, client));
  }
  return s;
}

struct SlopeRun {
  double seconds = 0;
  std::uint64_t checks = 0;  // candidate_checks during the attack
  bool live_held = false;
};

/// Replays `s.setup` untimed, then times `s.attack`.
SlopeRun RunSlope(const SlopeStream& s, EngineKind engine) {
  MonitorConfig cfg;
  cfg.engine = engine;
  auto monitor = CreatePropertyMonitor(s.property, cfg);
  for (const DataplaneEvent& ev : s.setup) monitor->ProcessEvent(ev);
  const std::size_t live = monitor->live_instances();
  const auto checks = [&] {
    telemetry::Snapshot snap;
    monitor->CollectInto(snap, "p");
    return snap.counter("monitor.engine.p.candidate_checks");
  };
  const std::uint64_t checks_before = checks();
  SlopeRun r;
  r.seconds = bench::Seconds([&] {
    for (const DataplaneEvent& ev : s.attack) monitor->ProcessEvent(ev);
  });
  r.checks = checks() - checks_before;
  r.live_held = live == s.setup.size() && monitor->live_instances() == live;
  return r;
}

}  // namespace
}  // namespace swmon

int main() {
  using namespace swmon;
  const bool tiny = std::getenv("SWMON_BENCH_TINY") != nullptr;
  bench::Header(
      "bench_adversarial", "E15 — adversarial state exhaustion",
      "Sec 3.3: monitor state is bounded; an adversary can aim floods at "
      "the bound so the eviction policy discards the victim before its "
      "violating suffix — policy choice decides what survives");

  const std::vector<EvictionPolicy> kPolicies = {
      EvictionPolicy::kCreationOrder, EvictionPolicy::kLru,
      EvictionPolicy::kRandom, EvictionPolicy::kTimeoutPriority};
  const std::vector<std::size_t> caps =
      tiny ? std::vector<std::size_t>{32}
           : std::vector<std::size_t>{16, 32, 64, 128};
  const std::vector<std::uint64_t> rates =
      tiny ? std::vector<std::uint64_t>{2000}
           : std::vector<std::uint64_t>{1000, 4000};

  bool failed = false;
  bench::JsonReporter json("adversarial");
  // Recall rows use the default (compiled) engine; the abort-slope rows
  // name their engine.
  json.SetMeta("compiled (default); abort_slope rows: both");
  // One CPU for the whole run: a migration would land cold caches on one
  // side of a timed pair.
  const bool pinned = PinCurrentThreadToCpu(0);

  // --- gate 1: unbounded default == oracle, zero evictions ---------------
  bench::Section("pay-for-what-you-use: unbounded default vs oracle");
  std::printf("%18s | %8s | %8s | %8s | %9s\n", "stream", "oracle",
              "detected", "spurious", "evictions");
  for (const std::string& name : AdversarialStreamNames()) {
    AdversarialParams ap;
    if (tiny) ap.attackers = 64;
    const AdversarialStream stream = MakeAdversarialStream(name, ap);
    const RecallReport r = MeasureRecall(stream, MonitorConfig{});
    std::printf("%18s | %8zu | %8zu | %8zu | %9llu\n", name.c_str(),
                r.oracle_violations, r.detected, r.spurious,
                static_cast<unsigned long long>(r.evictions));
    if (r.detected != r.oracle_violations || r.spurious != 0 ||
        r.evictions != 0) {
      std::printf("[bench] FAIL: unbounded default diverged from the oracle "
                  "on %s\n",
                  name.c_str());
      failed = true;
    }
  }

  // --- gate 2: a never-binding cap must not tax the hot path -------------
  {
    AdversarialParams ap;
    if (tiny) ap.attackers = 64;
    const AdversarialStream stream =
        MakeAdversarialStream("fw_evasion", ap);
    MonitorConfig armed;
    armed.eviction = EvictionConfig{}.WithMaxInstances(1u << 30);
    const bench::PairedTiming t = bench::PairedAB(
        kGatePairs, [&] { return ReplaySeconds(stream, MonitorConfig{}); },
        [&] { return ReplaySeconds(stream, armed); });
    const double n = static_cast<double>(stream.events.size());
    const double off_ns = t.a_s / n * 1e9;
    const double armed_ns = t.b_s / n * 1e9;
    const double ratio = t.ratio;
    std::printf("\ncaps off %.1f ns/event, never-binding cap %.1f ns/event "
                "(%.2fx, median of %d pairs%s; quartiles %.2fx / %.2fx)\n",
                off_ns, armed_ns, ratio, kGatePairs,
                pinned ? ", one CPU" : ", unpinned", t.ratio_q1, t.ratio_q3);
    json.AddRow()
        .Str("metric", "never_binding_cap_overhead")
        .Num("caps_off_ns_per_event", off_ns)
        .Num("armed_ns_per_event", armed_ns)
        .Num("ratio", ratio)
        .Num("ratio_q1", t.ratio_q1)
        .Num("ratio_q3", t.ratio_q3)
        .Num("pairs", kGatePairs);
    if (tiny && ratio > 1.5) {
      std::printf("[bench] FAIL: never-binding cap costs %.2fx (> 1.5x) — "
                  "the caps-off path must stay ~free\n",
                  ratio);
      failed = true;
    }
  }

  // --- the curves: recall vs cap vs attack rate, per policy --------------
  bench::Section("recall vs memory cap vs attack rate, per policy");
  std::printf("%18s | %9s | %16s | %5s | %8s | %8s | %9s | %7s\n", "stream",
              "pps", "policy", "cap", "oracle", "detected", "evictions",
              "recall");
  double co_recall_sum = 0, tp_recall_sum = 0;  // deadline streams, gate 3
  for (const std::string& name : AdversarialStreamNames()) {
    for (const std::uint64_t pps : rates) {
      AdversarialParams ap;
      ap.attack_pps = pps;
      if (tiny) ap.attackers = 64;
      const AdversarialStream stream = MakeAdversarialStream(name, ap);
      for (const EvictionPolicy policy : kPolicies) {
        for (const std::size_t cap : caps) {
          MonitorConfig mc;
          mc.eviction =
              EvictionConfig{}.WithPolicy(policy).WithMaxInstances(cap);
          const RecallReport r = MeasureRecall(stream, mc);
          std::printf("%18s | %9llu | %16s | %5zu | %8zu | %8zu | %9llu | "
                      "%6.1f%%\n",
                      name.c_str(), static_cast<unsigned long long>(pps),
                      EvictionPolicyName(policy), cap, r.oracle_violations,
                      r.detected,
                      static_cast<unsigned long long>(r.evictions),
                      r.Recall() * 100.0);
          json.AddRow()
              .Str("stream", name)
              .Num("attack_pps", static_cast<double>(pps))
              .Str("policy", EvictionPolicyName(policy))
              .Num("cap", static_cast<double>(cap))
              .Num("oracle_violations",
                   static_cast<double>(r.oracle_violations))
              .Num("detected", static_cast<double>(r.detected))
              .Num("spurious", static_cast<double>(r.spurious))
              .Num("evictions", static_cast<double>(r.evictions))
              .Num("recall", r.Recall());
          if (r.spurious != 0) {
            std::printf("[bench] FAIL: %zu spurious violations on %s — a "
                        "bounded run must never out-report the oracle\n",
                        r.spurious, name.c_str());
            failed = true;
          }
          // The mitigation gate compares the streams whose properties carry
          // deadlines (the others document the negative result).
          if ((name == "fw_evasion" || name == "dhcp_starvation") &&
              cap == 32 && pps == 2000) {
            if (policy == EvictionPolicy::kCreationOrder)
              co_recall_sum += r.Recall();
            if (policy == EvictionPolicy::kTimeoutPriority)
              tp_recall_sum += r.Recall();
          }
        }
      }
    }
  }

  // --- gate 3: the policy choice must matter on deadline streams ---------
  if (tiny) {
    std::printf("\nmitigation gate: creation-order recall sum %.2f vs "
                "timeout-priority %.2f (deadline streams, cap 32)\n",
                co_recall_sum, tp_recall_sum);
    if (!(co_recall_sum < tp_recall_sum)) {
      std::printf("[bench] FAIL: timeout-priority no longer beats "
                  "creation-order under evasion\n");
      failed = true;
    }
  }

  // --- abort slope: ns/event vs live instances under abort traffic -----
  bench::Section(
      "abort slope: ns/event vs live instances, abort-shaped traffic");
  const std::size_t attack_events = tiny ? 4096 : 16384;
  const std::vector<std::size_t> lives =
      tiny ? std::vector<std::size_t>{1024, 16384}
           : std::vector<std::size_t>{1024, 4096, 16384, 65536};
  const struct {
    const char* name;
    SlopeStream (*make)(std::size_t, std::size_t, std::size_t, std::uint64_t);
  } slopes[] = {{"ftp-data-port", FtpSlope},
                {"dhcp-reply-deadline", DhcpSlope}};
  const struct {
    const char* name;
    EngineKind kind;
  } engines[] = {{"compiled", EngineKind::kCompiled},
                 {"interpreted", EngineKind::kInterpreted}};
  std::printf("%20s | %11s | %7s | %6s | %11s | %12s\n", "property",
              "engine", "live", "spread", "ns/event", "checks/event");
  constexpr std::size_t kFixedTargets = 1024;
  for (const auto& sl : slopes) {
    for (const auto& eng : engines) {
      for (const std::size_t live : lives) {
        for (const bool spread_all : {true, false}) {
          const SlopeStream stream = sl.make(
              live, spread_all ? live : kFixedTargets, attack_events, 17);
          // Median of three runs.
          std::vector<SlopeRun> runs;
          for (int rep = 0; rep < 3; ++rep)
            runs.push_back(RunSlope(stream, eng.kind));
          std::sort(runs.begin(), runs.end(),
                    [](const SlopeRun& a, const SlopeRun& b) {
                      return a.seconds < b.seconds;
                    });
          const SlopeRun& r = runs[1];
          const double n = static_cast<double>(stream.attack.size());
          const double ns = r.seconds / n * 1e9;
          const double checks = static_cast<double>(r.checks) / n;
          const char* spread = spread_all ? "all" : "1k";
          std::printf("%20s | %11s | %7zu | %6s | %11.1f | %12.3f\n", sl.name,
                      eng.name, live, spread, ns, checks);
          json.AddRow()
              .Str("metric", "abort_slope")
              .Str("property", sl.name)
              .Str("engine", eng.name)
              .Num("live", static_cast<double>(live))
              .Str("targets", spread)
              .Num("attack_events", n)
              .Num("ns_per_event", ns)
              .Num("checks_per_event", checks);
          if (!r.live_held) {
            std::printf("[bench] FAIL: %s (%s) did not hold %zu live "
                        "instances through the attack\n",
                        sl.name, eng.name, live);
            failed = true;
          }
        }
      }
      // Gate: the same 1k-target traffic must cost at most 1.5x per event
      // with 16x the live instances.
      const SlopeStream small =
          sl.make(1024, kFixedTargets, attack_events, 17);
      const SlopeStream large =
          sl.make(16384, kFixedTargets, attack_events, 17);
      const bench::PairedTiming t = bench::PairedAB(
          kGatePairs, [&] { return RunSlope(small, eng.kind).seconds; },
          [&] { return RunSlope(large, eng.kind).seconds; });
      std::printf("%20s | %11s | 16k vs 1k live, 1k targets: %.2fx (median "
                  "of %d pairs; quartiles %.2fx / %.2fx; gate <= 1.5x)\n",
                  sl.name, eng.name, t.ratio, kGatePairs, t.ratio_q1,
                  t.ratio_q3);
      json.AddRow()
          .Str("metric", "abort_slope_ratio_16x")
          .Str("property", sl.name)
          .Str("engine", eng.name)
          .Num("ratio", t.ratio)
          .Num("ratio_q1", t.ratio_q1)
          .Num("ratio_q3", t.ratio_q3)
          .Num("pairs", kGatePairs);
      if (tiny && t.ratio > 1.5) {
        std::printf("[bench] FAIL: %s (%s) abort pass costs %.2fx per event "
                    "at 16x the live instances (> 1.5x) — the abort index "
                    "is not being used\n",
                    sl.name, eng.name, t.ratio);
        failed = true;
      }
    }
  }

  json.Flush();
  std::printf(
      "\nShape check: on deadline-carrying streams (dhcp_starvation, "
      "fw_evasion) recall collapses under creation-order/lru as the cap "
      "tightens but stays at 100%% under timeout-priority; on deadline-free "
      "streams (portknock_storm, nat_churn) no policy can tell victims from "
      "attackers — the documented negative result. The abort slope is "
      "flat on the 1k-target traffic: each abort-shaped event probes one "
      "bucket whatever the live count (the all-target curve adds cache "
      "misses).\n");
  return failed ? 1 : 0;
}
