// Differential harness for batch-mode execution: the batch entry points —
// MonitorSet's micro-batcher, PropertyMonitor::ProcessEventBatch /
// ProcessShardedBatch, and the parallel workers' batched drains — must be
// observationally bit-identical to scalar per-event delivery: same
// violations (instance ids, binding order), same counters for everything
// CollectInto publishes, including the compiled engine's OpenMap probe
// telemetry and the lazily-maintained timer counters when a stream
// interleaves AdvanceTime quiesce points with partial windows. The serial
// sweep feeds both the fuzz soup and a keyed-arrival stream, where most
// properties hold no live instances and the compiled engine's run folding
// actually engages. Also covers hot attach/detach flushing buffered events
// mid-stream, and the sharded batch path across 1/2/4/8 workers in both
// shard modes on both engines.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "monitor/compiled/engine.hpp"
#include "monitor/engine.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/parallel_monitor_set.hpp"
#include "properties/catalog.hpp"

namespace swmon {
namespace {

/// The EngineFuzz event soup (fuzz_test.cpp): random types, random field
/// sprinkles in a small value range so stages actually chain and violate.
std::vector<DataplaneEvent> FuzzSeedStream(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  SimTime t = SimTime::Zero();
  for (int i = 0; i < count; ++i) {
    DataplaneEvent ev;
    t = t + Duration::Millis(1 + static_cast<std::int64_t>(rng.NextBelow(50)));
    ev.time = t;
    const auto roll = rng.NextBelow(10);
    ev.type = roll < 4   ? DataplaneEventType::kArrival
              : roll < 8 ? DataplaneEventType::kEgress
                         : DataplaneEventType::kLinkStatus;
    for (std::size_t f = 0; f < kNumFieldIds; ++f) {
      if (rng.NextBool(0.35))
        ev.fields.Set(static_cast<FieldId>(f), rng.NextBelow(8));
    }
    events.push_back(std::move(ev));
  }
  return events;
}

/// bench_batch's keyed_arrival shape — TCP arrivals over a 256x256x512
/// flow pool on a 1 us clock — with one unsolicited ARP reply egress for a
/// fresh address every ~400 events. Most properties never see an event
/// that can create an instance, so their live count stays 0 and whole
/// runs fold; the ARP replies are the violations that keep the stream
/// non-vacuous (dhcparp-no-direct-reply).
std::vector<DataplaneEvent> KeyedArrivalStream(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<DataplaneEvent> events;
  std::uint64_t next_address = 0x0a000001;
  for (int i = 0; i < count; ++i) {
    DataplaneEvent ev;
    ev.time = SimTime::Zero() + Duration::Micros(i + 1);
    if (rng.NextBelow(400) == 0) {
      ev.type = DataplaneEventType::kEgress;
      ev.fields.Set(FieldId::kOutPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kArpOp, 2);
      ev.fields.Set(FieldId::kArpSenderIp, next_address++);
      ev.fields.Set(FieldId::kArpSenderMac, 0xb0 + rng.NextBelow(24));
      ev.fields.Set(FieldId::kEgressAction,
                    static_cast<std::uint64_t>(EgressActionValue::kForward));
    } else {
      ev.type = DataplaneEventType::kArrival;
      ev.fields.Set(FieldId::kInPort, 1 + rng.NextBelow(4));
      ev.fields.Set(FieldId::kPacketId, static_cast<std::uint64_t>(i) + 1);
      ev.fields.Set(FieldId::kIpSrc, 1000 + rng.NextBelow(256));
      ev.fields.Set(FieldId::kIpDst, 2000 + rng.NextBelow(256));
      ev.fields.Set(FieldId::kIpProto, 6);
      ev.fields.Set(FieldId::kL4SrcPort, 30000 + rng.NextBelow(512));
      ev.fields.Set(FieldId::kL4DstPort, rng.NextBool(0.5) ? 80 : 443);
    }
    events.push_back(std::move(ev));
  }
  return events;
}

std::vector<Property> Table1Properties() {
  std::vector<Property> props;
  for (const CatalogEntry& e : BuildCatalog())
    if (e.in_table1) props.push_back(e.property);
  return props;
}

void ExpectViolationEq(const Violation& a, const Violation& b,
                       const std::string& label) {
  EXPECT_EQ(a.property, b.property) << label;
  EXPECT_EQ(a.time, b.time) << label;
  EXPECT_EQ(a.instance_id, b.instance_id) << label;
  EXPECT_EQ(a.trigger_stage, b.trigger_stage) << label;
  EXPECT_EQ(a.bindings, b.bindings) << label;
  EXPECT_EQ(a.history.size(), b.history.size()) << label;
}

void ExpectViolationsEq(const std::vector<Violation>& a,
                        const std::vector<Violation>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i)
    ExpectViolationEq(a[i], b[i], label + " [" + std::to_string(i) + "]");
}

/// Full snapshot parity between a scalar-delivery set and a batched one:
/// every scalar name must exist with a bit-identical value (this covers the
/// engines' monitor.compiled.* probe telemetry and timer counters — the
/// determinism claim is that batching changes NO published number), and the
/// batched snapshot may only add the monitor.set.batch.* plumbing counters.
void ExpectSnapshotsAgree(const telemetry::Snapshot& scalar,
                          const telemetry::Snapshot& batched,
                          const std::string& label) {
  for (const auto& [name, sample] : scalar.samples()) {
    ASSERT_TRUE(batched.Has(name)) << label << " batched missing " << name;
    EXPECT_TRUE(sample == batched.samples().at(name)) << label << " at "
                                                      << name;
  }
  std::size_t extra = 0;
  for (const auto& [name, sample] : batched.samples())
    if (name.rfind("monitor.set.batch.", 0) == 0) ++extra;
  EXPECT_EQ(scalar.size() + extra, batched.size()) << label;
}

/// Drives `set` through the stream with AdvanceTime quiesce points
/// interleaved every `advance_every` events at `horizon` past the last
/// event — the cadence is coprime to the batch windows under test so
/// partial windows span the quiesce points.
void Drive(MonitorSet& set, const std::vector<DataplaneEvent>& events,
           std::size_t advance_every, Duration horizon) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    set.OnDataplaneEvent(events[i]);
    if (advance_every != 0 && (i + 1) % advance_every == 0)
      set.AdvanceTime(events[i].time + horizon);
  }
  set.AdvanceTime(events.back().time + Duration::Seconds(300));
}

enum class StreamKind { kFuzzSoup, kKeyedArrival };

class SerialBatchWindow
    : public ::testing::TestWithParam<std::tuple<std::size_t, StreamKind>> {};

TEST_P(SerialBatchWindow, BatchedSetMatchesScalarSetBitForBit) {
  const auto [window, stream] = GetParam();
  const bool keyed = stream == StreamKind::kKeyedArrival;
  // Quiesce horizons sized to each stream's clock: ~25 ms of fuzz soup
  // (1-50 ms steps), ~25 events of keyed arrivals (1 us steps).
  const Duration horizon =
      keyed ? Duration::Micros(25) : Duration::Millis(25);
  const std::vector<Property> props = Table1Properties();
  ASSERT_EQ(props.size(), 13u);
  for (const EngineKind kind :
       {EngineKind::kCompiled, EngineKind::kInterpreted}) {
    for (const std::uint64_t seed : {7ull, 41ull}) {
      const auto events = keyed ? KeyedArrivalStream(seed, 2400)
                                : FuzzSeedStream(seed, 1200);
      MonitorConfig cfg;
      cfg.engine = kind;

      MonitorSet scalar;
      for (const Property& p : props) scalar.Add(p, cfg);
      Drive(scalar, events, /*advance_every=*/97, horizon);

      MonitorSet batched;
      batched.SetBatching(window);
      for (const Property& p : props) batched.Add(p, cfg);
      Drive(batched, events, /*advance_every=*/97, horizon);

      const std::string label =
          std::string(keyed ? "keyed" : "fuzz") +
          " window=" + std::to_string(window) + " seed=" +
          std::to_string(seed) +
          (kind == EngineKind::kCompiled ? " compiled" : " interpreted");
      ExpectViolationsEq(scalar.AllViolations(), batched.AllViolations(),
                         label);
      EXPECT_GT(scalar.TotalViolations(), 0u) << label << " (vacuous)";
      ExpectSnapshotsAgree(scalar.TelemetrySnapshot(),
                           batched.TelemetrySnapshot(), label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, SerialBatchWindow,
    ::testing::Combine(::testing::Values(1u, 3u, 16u, 64u, 256u),
                       ::testing::Values(StreamKind::kFuzzSoup,
                                         StreamKind::kKeyedArrival)));

TEST(SerialBatchTest, HotAttachDetachMidStreamFlushesBufferedEvents) {
  // Lifecycle ops land mid-window: the batcher must flush the partial run
  // (the new engine never sees buffered pre-attach events; the departing
  // one still owes its buffered ones), and the result must equal a scalar
  // set performing the identical ops at the identical stream offsets.
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(13, 1500);
  MonitorConfig cfg;
  cfg.engine = EngineKind::kCompiled;

  const auto run = [&](MonitorSet& set) {
    std::vector<PropertyId> ids;
    for (std::size_t i = 0; i < 4; ++i) ids.push_back(set.AttachProperty(props[i], cfg));
    std::vector<Violation> detached;
    for (std::size_t i = 0; i < events.size(); ++i) {
      set.OnDataplaneEvent(events[i]);
      if (i == 499) {
        // Attach mid-stream (and mid-window).
        for (std::size_t k = 4; k < props.size(); ++k)
          ids.push_back(set.AttachProperty(props[k], cfg));
      }
      if (i == 999) {
        auto d = set.DetachProperty(ids[2]);
        EXPECT_TRUE(d.has_value());
        detached = std::move(*d);
      }
    }
    set.AdvanceTime(events.back().time + Duration::Seconds(300));
    return detached;
  };

  MonitorSet scalar;
  const auto scalar_detached = run(scalar);
  MonitorSet batched;
  batched.SetBatching(32);
  const auto batched_detached = run(batched);

  ExpectViolationsEq(scalar_detached, batched_detached, "detached");
  ExpectViolationsEq(scalar.AllViolations(), batched.AllViolations(), "all");
  ExpectSnapshotsAgree(scalar.TelemetrySnapshot(), batched.TelemetrySnapshot(),
                       "post-lifecycle");
}

TEST(SerialBatchTest, SpanDeliveryMatchesPerEventDelivery) {
  // OnDataplaneEvents executes batched runs straight out of the caller's
  // buffer (no pending-copy) and chunks them by the window; it must be
  // observationally identical to trickling the same events one at a time
  // through the same batched set — and to a scalar set. An odd span split
  // lands chunk boundaries away from window boundaries.
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(29, 1100);
  MonitorConfig cfg;
  cfg.engine = EngineKind::kCompiled;

  MonitorSet scalar;
  for (const Property& p : props) scalar.Add(p, cfg);
  MonitorSet trickle;
  trickle.SetBatching(48);
  for (const Property& p : props) trickle.Add(p, cfg);
  MonitorSet span;
  span.SetBatching(48);
  for (const Property& p : props) span.Add(p, cfg);

  for (const DataplaneEvent& ev : events) {
    scalar.OnDataplaneEvent(ev);
    trickle.OnDataplaneEvent(ev);
  }
  for (std::size_t base = 0; base < events.size(); base += 171)
    span.OnDataplaneEvents(&events[base],
                           std::min<std::size_t>(171, events.size() - base));

  const SimTime end = events.back().time + Duration::Seconds(300);
  scalar.AdvanceTime(end);
  trickle.AdvanceTime(end);
  span.AdvanceTime(end);

  ExpectViolationsEq(scalar.AllViolations(), span.AllViolations(),
                     "span vs scalar");
  ExpectViolationsEq(trickle.AllViolations(), span.AllViolations(),
                     "span vs trickle");
  EXPECT_GT(scalar.TotalViolations(), 0u) << "vacuous stream";
  ExpectSnapshotsAgree(scalar.TelemetrySnapshot(), span.TelemetrySnapshot(),
                       "span vs scalar");
}

// ------------------------------------------- engine-direct batch parity

/// Chunked ProcessEventBatch against the interpreter's scalar loop, with
/// AdvanceTime quiesce points between chunks. The chunk size is coprime to
/// the quiesce cadence, so windows repeatedly straddle timer activity —
/// the lazily-maintained timer counters (timer_stale_pops and friends)
/// must still land on identical values in both engines' snapshots
/// (timer_set.cpp counts compaction-discarded stale entries exactly like
/// lazy pops, making the counter a pure function of the arm/cancel
/// history).
TEST(BatchEngineDifferentialTest, ChunkedBatchesMatchScalarInterpreter) {
  for (const CatalogEntry& e : BuildCatalog()) {
    for (const std::uint64_t seed : {5ull, 23ull}) {
      const auto events = FuzzSeedStream(seed, 1000);
      const std::string label = std::string(e.id) + " seed=" +
                                std::to_string(seed);
      MonitorConfig cfg;
      cfg.engine = EngineKind::kInterpreted;
      auto interp = CreatePropertyMonitor(e.property, cfg);
      cfg.engine = EngineKind::kCompiled;
      auto comp = CreatePropertyMonitor(e.property, cfg);
      ASSERT_NE(dynamic_cast<CompiledEngine*>(comp.get()), nullptr) << label;

      constexpr std::size_t kChunk = 64;
      const EventTypeMask sig = interp->interest_signature();
      std::vector<BatchEventResult> results(kChunk);
      for (std::size_t base = 0; base < events.size(); base += kChunk) {
        const std::size_t n = std::min(kChunk, events.size() - base);
        // Interpreter: the scalar loop the batch API promises to equal.
        for (std::size_t i = 0; i < n; ++i) {
          const DataplaneEvent& ev = events[base + i];
          if (sig >> static_cast<std::size_t>(ev.type) & 1) {
            interp->ProcessDispatchedEvent(ev);
          } else {
            interp->NoteFilteredEvent(ev.time);
          }
        }
        // Compiled: the whole chunk at once.
        comp->ProcessEventBatch(&events[base], n, results.data());
        // The per-event marks must match the engine's own final state at
        // the chunk boundary.
        EXPECT_EQ(results[n - 1].violations_after, comp->violations().size())
            << label;
        EXPECT_EQ(results[n - 1].created_after, comp->created_count())
            << label;
        // Quiesce between chunks: both clocks advance past the boundary.
        const SimTime horizon =
            events[base + n - 1].time + Duration::Millis(40);
        interp->AdvanceTime(horizon);
        comp->AdvanceTime(horizon);
      }
      const SimTime end = events.back().time + Duration::Seconds(300);
      interp->AdvanceTime(end);
      comp->AdvanceTime(end);

      ExpectViolationsEq(interp->violations(), comp->violations(), label);
      // Full snapshot parity, timer counters included; the compiled
      // engine's extra monitor.compiled.* probe telemetry is the only
      // allowed addition.
      telemetry::Snapshot sa, sb;
      interp->CollectInto(sa, "e");
      comp->CollectInto(sb, "e");
      for (const auto& [name, sample] : sa.samples()) {
        ASSERT_TRUE(sb.Has(name)) << label << " compiled missing " << name;
        EXPECT_TRUE(sample == sb.samples().at(name)) << label << " at "
                                                     << name;
      }
      std::size_t sb_shared = 0;
      for (const auto& [name, sample] : sb.samples())
        if (name.rfind("monitor.compiled.", 0) != 0) ++sb_shared;
      EXPECT_EQ(sa.size(), sb_shared) << label;
    }
  }
}

// ------------------------------------------------- sharded batch parity

struct ShardedCase {
  std::size_t workers;
  ShardMode mode;
};

class ShardedBatchParity
    : public ::testing::TestWithParam<std::tuple<ShardedCase, EngineKind>> {};

TEST_P(ShardedBatchParity, WorkersDrainingBatchesMatchSerial) {
  const auto [shard, kind] = GetParam();
  const auto [workers, mode] = shard;
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(99, 1500);
  const SimTime end = events.back().time + Duration::Seconds(300);
  MonitorConfig cfg;
  cfg.engine = kind;

  MonitorSet serial;
  for (const Property& p : props) serial.Add(p, cfg);
  for (const DataplaneEvent& ev : events) serial.OnDataplaneEvent(ev);
  serial.AdvanceTime(end);

  ParallelConfig pcfg;
  pcfg.workers = workers;
  pcfg.batch_capacity = 128;
  pcfg.shard_mode = mode;
  ParallelMonitorSet parallel(pcfg);
  for (const Property& p : props) parallel.Add(p, cfg);
  parallel.Start();
  for (const DataplaneEvent& ev : events) parallel.OnDataplaneEvent(ev);
  parallel.AdvanceTime(end);
  parallel.Stop();

  const std::string label =
      "workers=" + std::to_string(workers) +
      (mode == ShardMode::kInstance ? " instance " : " property ") +
      EngineKindName(kind);
  ExpectViolationsEq(serial.AllViolations(), parallel.AllViolations(), label);
  EXPECT_GT(serial.TotalViolations(), 0u) << label << " (vacuous)";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShardedBatchParity,
    ::testing::Combine(
        ::testing::Values(ShardedCase{1, ShardMode::kProperty},
                          ShardedCase{2, ShardMode::kProperty},
                          ShardedCase{4, ShardMode::kProperty},
                          ShardedCase{8, ShardMode::kProperty},
                          ShardedCase{1, ShardMode::kInstance},
                          ShardedCase{2, ShardMode::kInstance},
                          ShardedCase{4, ShardMode::kInstance},
                          ShardedCase{8, ShardMode::kInstance}),
        ::testing::Values(EngineKind::kCompiled, EngineKind::kInterpreted)));

TEST(ShardedBatchLifecycleTest, HotAttachDetachFlushesAroundLifecycleOps) {
  // Hot lifecycle on a running pool: the quiesce-point attach/detach must
  // drain every batch published before the op (and no new engine may see
  // them), and the stream around the ops must still merge to the serial
  // order.
  const std::vector<Property> props = Table1Properties();
  const auto events = FuzzSeedStream(3, 1200);
  const SimTime end = events.back().time + Duration::Seconds(300);
  MonitorConfig cfg;
  cfg.engine = EngineKind::kCompiled;

  for (const ShardMode mode : {ShardMode::kProperty, ShardMode::kInstance}) {
    const auto run = [&](auto& set, auto deliver) {
      std::vector<PropertyId> ids;
      for (std::size_t i = 0; i < 6; ++i)
        ids.push_back(set.AttachProperty(props[i], cfg));
      for (std::size_t i = 0; i < events.size(); ++i) {
        deliver(events[i]);
        if (i == 399) {
          for (std::size_t k = 6; k < props.size(); ++k)
            ids.push_back(set.AttachProperty(props[k], cfg));
        }
        if (i == 799) {
          EXPECT_TRUE(set.DetachProperty(ids[1]).has_value());
        }
      }
      set.AdvanceTime(end);
    };

    MonitorSet serial;
    run(serial, [&](const DataplaneEvent& ev) { serial.OnDataplaneEvent(ev); });

    ParallelConfig pcfg;
    pcfg.workers = 4;
    pcfg.batch_capacity = 64;
    pcfg.shard_mode = mode;
    ParallelMonitorSet parallel(pcfg);
    parallel.Start();
    run(parallel,
        [&](const DataplaneEvent& ev) { parallel.OnDataplaneEvent(ev); });
    parallel.Stop();

    const std::string label =
        mode == ShardMode::kInstance ? "instance" : "property";
    ExpectViolationsEq(serial.AllViolations(), parallel.AllViolations(),
                       label);
  }
}

}  // namespace
}  // namespace swmon
