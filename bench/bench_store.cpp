// Ablation — the engine's instance store (DESIGN.md §5.1): link-key
// indexing vs linear scan. The indexed store is the software analogue of
// the register/static layout Sec 3.3 argues for; the linear store is the
// per-instance-table (Varanus) layout. Wall-clock, google-benchmark.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.hpp"
#include "monitor/engine.hpp"
#include "properties/catalog.hpp"
#include "telemetry/snapshot.hpp"

namespace swmon {
namespace {

std::vector<DataplaneEvent> FirewallEvents(std::size_t hosts,
                                           std::size_t count,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    DataplaneEvent ev;
    ev.time = SimTime::Zero() + Duration::Micros(static_cast<std::int64_t>(i));
    const std::uint64_t a = rng.NextBelow(hosts), b = rng.NextBelow(hosts);
    if (rng.NextBool(0.7)) {
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1);
      ev.fields.Set(FieldId::kIpSrc, 1000 + a);
      ev.fields.Set(FieldId::kIpDst, 2000 + b);
    } else {
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kIpSrc, 2000 + b);
      ev.fields.Set(FieldId::kIpDst, 1000 + a);
      ev.fields.Set(FieldId::kEgressAction,
                    static_cast<std::uint64_t>(
                        rng.NextBool(0.1) ? EgressActionValue::kDrop
                                          : EgressActionValue::kForward));
    }
    events.push_back(std::move(ev));
  }
  return events;
}

void RunEngine(benchmark::State& state, bool linear) {
  const std::size_t hosts = static_cast<std::size_t>(state.range(0));
  const auto events = FirewallEvents(hosts, 20000, 42);
  const Property prop = FirewallReturnNotDropped();
  std::uint64_t violations = 0;
  for (auto _ : state) {
    InterpreterAblation ablation;
    ablation.force_linear_store = linear;
    MonitorEngine engine(prop, MonitorConfig{}, ablation);
    for (const auto& ev : events) engine.ProcessEvent(ev);
    violations += engine.violations().size();
  }
  benchmark::DoNotOptimize(violations);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}

void BM_EngineIndexedStore(benchmark::State& state) {
  RunEngine(state, /*linear=*/false);
}
BENCHMARK(BM_EngineIndexedStore)->Arg(16)->Arg(256)->Arg(2048);

void BM_EngineLinearStore(benchmark::State& state) {
  RunEngine(state, /*linear=*/true);
}
BENCHMARK(BM_EngineLinearStore)->Arg(16)->Arg(256)->Arg(2048);

void BM_MonitorCatalogFanout(benchmark::State& state) {
  // All 21 catalog properties attached at once over generic traffic: the
  // realistic "monitor everything" cost of the reference engine.
  const auto events = FirewallEvents(128, 5000, 7);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<MonitorEngine>> engines;
    for (auto& e : BuildCatalog())
      engines.push_back(std::make_unique<MonitorEngine>(e.property));
    for (const auto& ev : events)
      for (auto& eng : engines) eng->ProcessEvent(ev);
    for (auto& eng : engines) {
      telemetry::Snapshot snap;
      eng->CollectInto(snap, "e");
      sink += snap.counter("monitor.engine.e.events");
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_MonitorCatalogFanout);

}  // namespace
}  // namespace swmon

BENCHMARK_MAIN();
