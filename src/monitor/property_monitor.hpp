// The engine-neutral monitor interface, its configuration, and the factory.
//
// Two engines execute a Property over a dataplane stream: the reference
// interpreter (MonitorEngine, monitor/engine.hpp) walks the parsed spec
// directly, and the compiled engine (CompiledEngine, monitor/compiled/)
// runs an ahead-of-time-lowered bytecode program over packed state
// records. Both implement PropertyMonitor; MonitorSet /
// ParallelMonitorSet / DispatchTable hold only this interface, so the
// engine is selectable per property (MonitorConfig::engine) and
// hot-attachable through the daemon lifecycle path like any other
// property. The compiled engine is the default; the interpreter is the
// differential oracle and the fallback for what the compiler does not
// lower.
//
// The two engines are required to be observationally identical: same
// violation stream (bit-identical, including instance ids and binding
// order), same counters for everything CollectInto publishes. The
// differential harness in tests/compiled_engine_test.cpp enforces this on
// fuzz streams and the full Table-1 catalog — which is what lets either
// engine serve as an oracle for the other.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "dataplane/switch.hpp"
#include "monitor/eviction.hpp"
#include "monitor/spec.hpp"
#include "monitor/violation.hpp"
#include "telemetry/snapshot.hpp"

namespace swmon {

/// Per-event observability record filled by the batch entry points, in
/// event order. Batch callers (the parallel workers) reconstruct exactly
/// what the scalar loop would have observed between events — violation
/// highwater marks, creation seqs, live counts — without a virtual call per
/// event.
struct BatchEventResult {
  /// violations().size() after the event's clock advance but before its
  /// passes. Meaningful for ProcessShardedBatch (the phase-0/phase-1 marker
  /// split); ProcessEventBatch sets it equal to violations_after.
  std::uint32_t violations_clock = 0;
  /// violations().size() after the event completed.
  std::uint32_t violations_after = 0;
  /// live_instances() after the event.
  std::uint32_t live_after = 0;
  /// created_count() after the event.
  std::uint64_t created_after = 0;
};

/// What a sharded batch does with one event — the per-event decision the
/// parallel worker loop used to make inline (parallel_monitor_set.cpp).
struct ShardedBatchOp {
  /// Stage mask for ProcessShardedEvent; 0 = clock-only (no passes run).
  std::uint64_t stage_mask = 0;
  /// Gates the events/events_dispatched counters (exactly one replica
  /// counts each event).
  bool count = false;
  /// True on the replica that accounts the event as filtered
  /// (NoteFilteredEvent instead of a bare AdvanceTime).
  bool filtered = false;
};

/// Which execution engine runs a property.
enum class EngineKind : std::uint8_t {
  /// The reference interpreter: the oracle differential tests compare
  /// against, and the fallback for configurations kCompiled does not lower.
  kInterpreted,
  kCompiled,
};

const char* EngineKindName(EngineKind kind);

struct MonitorConfig {
  ProvenanceLevel provenance = ProvenanceLevel::kLimited;
  /// Bounded-memory eviction (the paper's space-consumption concern):
  /// policy + instance/byte caps; disabled by default. See eviction.hpp.
  EvictionConfig eviction;
  /// Engine selection; see EngineKind. Configurations the compiled engine
  /// does not lower fall back to the interpreter — CreatePropertyMonitor
  /// documents the exact rules.
  EngineKind engine = EngineKind::kCompiled;

  // Builder-style setters (chainable).
  MonitorConfig& WithEviction(EvictionConfig e) {
    eviction = e;
    return *this;
  }
  MonitorConfig& WithEngine(EngineKind k) {
    engine = k;
    return *this;
  }
  MonitorConfig& WithProvenance(ProvenanceLevel p) {
    provenance = p;
    return *this;
  }
};

struct MonitorStats {
  std::uint64_t events = 0;
  std::uint64_t events_dispatched = 0;  // delivered via a MonitorSet dispatch
  std::uint64_t events_filtered = 0;    // skipped by interest-signature filter
  std::uint64_t instances_created = 0;
  std::uint64_t instances_refreshed = 0;
  std::uint64_t instances_advanced = 0;
  std::uint64_t instances_expired = 0;   // window lapsed before next stage
  std::uint64_t instances_aborted = 0;   // obligation discharged
  std::uint64_t instances_evicted = 0;   // bounded-memory (EvictionConfig) pressure
  std::uint64_t timeout_observations = 0;  // Feature 7 firings
  std::uint64_t suppressed_creations = 0;
  std::uint64_t violations = 0;
  std::uint64_t candidate_checks = 0;  // instances examined across lookups
  std::size_t peak_live = 0;
  // TimerSet mirrors. Filled on demand by CollectInto() straight from the
  // TimerSet, so they can never be read stale.
  std::uint64_t timers_armed = 0;      // Arm() calls, including re-arms
  std::uint64_t timer_stale_pops = 0;  // lazily discarded stale heap entries
};

class PropertyMonitor : public DataplaneObserver {
 public:
  ~PropertyMonitor() override = default;

  PropertyMonitor() = default;
  PropertyMonitor(const PropertyMonitor&) = delete;
  PropertyMonitor& operator=(const PropertyMonitor&) = delete;

  void OnDataplaneEvent(const DataplaneEvent& event) override {
    ProcessEvent(event);
  }

  /// Feeds one event. Time must be monotonically non-decreasing.
  virtual void ProcessEvent(const DataplaneEvent& event) = 0;

  /// Advances monitor time without an event, firing any elapsed windows
  /// (needed to observe timeout-action violations in quiet periods).
  virtual void AdvanceTime(SimTime now) = 0;

  // --- dispatch-layer entry points (MonitorSet) ---
  /// Delivery through the pre-filtered dispatch layer: counted separately
  /// from direct ProcessEvent calls so the filter's reach is measurable.
  virtual void ProcessDispatchedEvent(const DataplaneEvent& event) = 0;
  /// An event whose type is outside this property's interest signature. The
  /// engine must still observe its timestamp so windows keep expiring
  /// (Features 3/7) exactly as they would under broadcast delivery.
  virtual void NoteFilteredEvent(SimTime now) = 0;

  // --- instance-sharded delivery (ParallelMonitorSet) ---
  /// Partial delivery for instance sharding: bit s of `stage_mask` gates the
  /// abort/advance passes over stage-s instances, and bit 0 additionally
  /// gates the create and suppressor passes. The caller must have called
  /// AdvanceTime(event.time) first (the sharded driver fires timers as a
  /// separate phase so expiry markers can be ordered before match markers).
  /// `count` gates the events / events_dispatched counters so exactly one
  /// replica accounts for each event. The default ignores the mask and
  /// counts unconditionally — correct for the unsharded (full-delivery)
  /// case only.
  virtual void ProcessShardedEvent(const DataplaneEvent& event,
                                   std::uint64_t stage_mask, bool count) {
    (void)stage_mask;
    (void)count;
    ProcessDispatchedEvent(event);
  }

  // --- batch execution ---
  /// Feeds a whole run of events in order. Observationally identical to the
  /// scalar loop `for e: interested ? ProcessDispatchedEvent(e)
  /// : NoteFilteredEvent(e.time)` — same violations (bit-identical,
  /// including instance ids), same counters — but a native implementation
  /// (CompiledEngine) may fold runs of events whose only effect is the
  /// clock into one counter bump and one AdvanceTime. `results`, when
  /// non-null, must hold `count` entries and is filled with the per-event
  /// observability marks. The default is the scalar loop — the
  /// interpreter's fallback.
  virtual void ProcessEventBatch(const DataplaneEvent* events,
                                 std::size_t count,
                                 BatchEventResult* results) {
    for (std::size_t i = 0; i < count; ++i) {
      const DataplaneEvent& ev = events[i];
      if ((interest_ >> static_cast<int>(ev.type)) & 1) {
        ProcessDispatchedEvent(ev);
      } else {
        NoteFilteredEvent(ev.time);
      }
      if (results != nullptr) {
        BatchEventResult& r = results[i];
        r.violations_after =
            static_cast<std::uint32_t>(violations().size());
        r.violations_clock = r.violations_after;
        r.live_after = static_cast<std::uint32_t>(live_instances());
        r.created_after = created_count();
      }
    }
  }

  /// Sharded-batch counterpart: per event, `ops[i]` says what the scalar
  /// worker loop would have done — NoteFilteredEvent / bare AdvanceTime /
  /// AdvanceTime + ProcessShardedEvent(stage_mask, count). results[i]
  /// .violations_clock is captured between the clock advance and the
  /// passes, which is the phase-0 (timer) / phase-1 (match) marker split.
  void ProcessShardedBatch(const DataplaneEvent* events, std::size_t count,
                           const ShardedBatchOp* ops,
                           BatchEventResult* results) {
    for (std::size_t i = 0; i < count; ++i) {
      const DataplaneEvent& ev = events[i];
      const ShardedBatchOp& op = ops[i];
      if (op.filtered) {
        NoteFilteredEvent(ev.time);
      } else {
        AdvanceTime(ev.time);
      }
      if (results != nullptr)
        results[i].violations_clock =
            static_cast<std::uint32_t>(violations().size());
      if (op.stage_mask != 0) ProcessShardedEvent(ev, op.stage_mask, op.count);
      if (results != nullptr) {
        BatchEventResult& r = results[i];
        r.violations_after =
            static_cast<std::uint32_t>(violations().size());
        r.live_after = static_cast<std::uint32_t>(live_instances());
        r.created_after = created_count();
      }
    }
  }

  /// Lifetime instances_created count. The sharded driver polls the delta
  /// after each event to log which event seq created an instance, which is
  /// what lets the merge renumber per-replica instance ids back to the
  /// serial sequence.
  virtual std::uint64_t created_count() const = 0;

  /// Event types any stage/abort/suppressor pattern can react to; computed
  /// once at construction (see features.hpp). Non-virtual: the dispatch
  /// layer reads it per attach, engines fill interest_ in their
  /// constructors.
  EventTypeMask interest_signature() const { return interest_; }

  virtual const Property& property() const = 0;

  /// Publishes this engine's counters into `snap` under
  /// `monitor.engine.<name>.<stat>` (counters) plus the `live_instances` /
  /// `eviction_queue` / `state_bytes` gauges. The stats are the engine's
  /// own single-threaded shard; ParallelMonitorSet calls this only at
  /// quiesce points, which is what keeps the merge TSan-clean.
  virtual void CollectInto(telemetry::Snapshot& snap,
                           std::string_view name) const = 0;

  virtual const std::vector<Violation>& violations() const = 0;
  virtual std::vector<Violation> TakeViolations() = 0;
  virtual std::size_t live_instances() const = 0;
  virtual SimTime now() const = 0;

  /// Approximate resident bytes of monitor state (instances + provenance);
  /// bench_provenance and the state telemetry gauge report this.
  virtual std::size_t StateBytes() const = 0;

 protected:
  EventTypeMask interest_ = kAllEventTypes;
};

/// Builds the engine MonitorConfig::engine selects. A kCompiled request
/// falls back to the interpreter for what the compiled lowering does not
/// cover: ProvenanceLevel::kFull (history capture) and properties outside
/// compiled::Lowerable (more than 64 stages or variables).
std::unique_ptr<PropertyMonitor> CreatePropertyMonitor(Property property,
                                                       MonitorConfig config = {});

/// The kind CreatePropertyMonitor would instantiate for this config, after
/// the fallback rules.
EngineKind ResolveEngineKind(const Property& property,
                             const MonitorConfig& config);

}  // namespace swmon
