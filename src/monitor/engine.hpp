// The runtime monitor engine.
//
// A MonitorEngine executes one Property over a stream of dataplane events.
// Its state is a set of *instances* — partially completed attempts to
// witness a violation (Feature 8) — each holding a binding environment, the
// index of the next observation to match, and an optional deadline.
//
// Event processing order (all within ProcessEvent):
//   1. time advances: expired windows either kill instances (Feature 3) or
//      fire pending timeout observations (Feature 7);
//   2. abort patterns discharge obligations (Feature 4);
//   3. live instances waiting for later stages try to advance — possibly
//      many per event (multiple match);
//   4. stage 0 creates (or refreshes) instances, subject to suppression;
//   5. suppressor patterns record their keys.
//
// Instance lookup is indexed: for each stage, the equality-against-variable
// conditions form a link key; instances whose link variables are bound are
// hashed under the projection of those variables, so an event finds its
// candidates with one hash probe (this is the "static Varanus" /
// register-friendly layout Sec 3.3 argues for). Instances whose link
// variables are not yet bound — wandering match — and stages with no link
// conditions — multiple match — fall back to a per-stage scan list.
// Aborts probe the same way (monitor/abort_index.hpp): a prefilter first,
// then the link index or an abort-only index over the abort's own key.
// bench_store ablates indexed vs. forced-linear lookup.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dataplane/flow_key.hpp"
#include "dataplane/switch.hpp"
#include "event/timer_set.hpp"
#include "monitor/abort_index.hpp"
#include "monitor/property_monitor.hpp"
#include "monitor/spec.hpp"
#include "monitor/violation.hpp"
#include "telemetry/snapshot.hpp"

namespace swmon {

/// Interpreter-only ablation modes. The compiled engine has no counterpart,
/// so they are constructor arguments here rather than MonitorConfig fields;
/// the ablation benches and the store-equivalence tests build MonitorEngine
/// directly to use them.
struct InterpreterAblation {
  /// Disables the link-key and abort indexes (every lookup scans all
  /// instances at the stage; abort prefilters stay). Exists for the store
  /// ablation bench; semantics are identical.
  bool force_linear_store = false;
  /// Unsound on purpose: re-arm a pending timeout-action window whenever
  /// the observation preceding it re-fires. This is the naive semantics
  /// Sec 2.3 warns against — "a never-answered sequence of requests every
  /// (T-1) seconds would not be detected as a violation". bench_ablation
  /// measures exactly that miss.
  bool naive_timeout_refresh = false;
};

class MonitorEngine : public PropertyMonitor {
 public:
  explicit MonitorEngine(Property property, MonitorConfig config = {},
                         InterpreterAblation ablation = {});

  // Not copyable/movable: stage stores hold interior references.
  MonitorEngine(const MonitorEngine&) = delete;
  MonitorEngine& operator=(const MonitorEngine&) = delete;

  /// Feeds one event. Time must be monotonically non-decreasing.
  void ProcessEvent(const DataplaneEvent& event) override;

  /// Advances monitor time without an event, firing any elapsed windows
  /// (needed to observe timeout-action violations in quiet periods).
  void AdvanceTime(SimTime now) override;

  // --- dispatch-layer entry points (MonitorSet) ---
  /// Delivery through the pre-filtered dispatch layer: counted separately
  /// from direct ProcessEvent calls so the filter's reach is measurable.
  void ProcessDispatchedEvent(const DataplaneEvent& event) override {
    ++stats_.events_dispatched;
    ProcessEvent(event);
  }
  /// An event whose type is outside this property's interest signature. The
  /// engine must still observe its timestamp so windows keep expiring
  /// (Features 3/7) exactly as they would under broadcast delivery.
  void NoteFilteredEvent(SimTime now) override {
    ++stats_.events_filtered;
    AdvanceTime(now);
  }

  /// Instance-sharded delivery: runs only the passes `stage_mask` selects
  /// (see PropertyMonitor::ProcessShardedEvent). The caller advanced time
  /// already; this must not fire timers interleaved with match work.
  void ProcessShardedEvent(const DataplaneEvent& event,
                           std::uint64_t stage_mask, bool count) override;

  std::uint64_t created_count() const override {
    return stats_.instances_created;
  }

  const Property& property() const override { return property_; }

  /// Publishes this engine's counters into `snap` under
  /// `monitor.engine.<name>.<stat>` (counters) plus the `live_instances` /
  /// `eviction_queue` / `state_bytes` gauges. Timer values are read from
  /// the TimerSet at call time — never stale. The engine's stats struct is
  /// its own single-threaded shard; ParallelMonitorSet calls this only at
  /// quiesce points, which is what keeps the merge TSan-clean.
  void CollectInto(telemetry::Snapshot& snap,
                   std::string_view name) const override;

  const std::vector<Violation>& violations() const override {
    return violations_;
  }
  std::vector<Violation> TakeViolations() override {
    return std::move(violations_);
  }
  std::size_t live_instances() const override { return instances_.size(); }
  SimTime now() const override { return now_; }
  const TimerSet& timers() const { return timers_; }
  /// Pending eviction-policy queue entries (live + not-yet-pruned stale
  /// ones). Empty when eviction is disabled; bounded by ~2x live otherwise.
  std::size_t eviction_queue_size() const { return eviction_.QueueSize(); }

  /// Approximate resident bytes of monitor state (instances + provenance);
  /// bench_provenance reports this.
  std::size_t StateBytes() const override;

 private:
  struct Instance {
    std::uint64_t id;
    std::uint32_t stage;  // next stage to match
    SimTime created;
    SimTime deadline = SimTime::Infinity();
    std::vector<std::optional<std::uint64_t>> env;
    std::uint64_t last_event_seq = 0;  // one advance per event
    std::uint32_t stage_matches = 0;   // toward the stage's min_count
    std::size_t scan_pos = 0;  // index in its stage's scan list, when there
    std::vector<ProvenanceEvent> history;  // kFull only
  };

  using KeyedIds =
      std::unordered_map<FlowKey, std::vector<std::uint64_t>, FlowKeyHash>;

  /// Per-stage candidate index (see file comment).
  struct StageStore {
    std::vector<KeyTerm> link;  // field == $var conditions, var-id order
    std::uint64_t need = 0;     // RequiredPresence of the stage pattern
    KeyedIds keyed;
    std::vector<std::uint64_t> scan;  // unkeyed / linear-mode instances
    /// Abort prefilters and probes (DESIGN.md 5m); `extra[i]` is the
    /// abort-only index over abort_plan.extra[i], holding the instances
    /// whose key vars are all bound.
    StageAbortPlan abort_plan;
    std::vector<KeyedIds> extra;
  };

  // --- evaluation ---
  bool EvalCondition(const Condition& c, const FieldMap& fields,
                     const std::vector<std::optional<std::uint64_t>>& env) const;
  bool MatchPattern(const Pattern& p, const DataplaneEvent& ev,
                    const std::vector<std::optional<std::uint64_t>>& env) const;
  /// Applies a stage's bindings to env; false when a required event field is
  /// absent (the stage then does not match).
  bool ApplyBindings(const Stage& stage, const DataplaneEvent& ev,
                     std::vector<std::optional<std::uint64_t>>& env);

  // --- instance lifecycle ---
  void InsertIntoStore(Instance& inst);
  void RemoveFromStore(const Instance& inst);
  void DestroyInstance(std::uint64_t id);
  void AdvanceInstance(Instance& inst, const DataplaneEvent* ev);
  void ArmWindow(Instance& inst, const Stage& completed,
                 const DataplaneEvent* ev);
  void ReportViolation(const Instance& inst, SimTime when,
                       const std::string& trigger,
                       std::uint32_t trigger_stage_index);
  void OnTimerExpiry(std::uint64_t id, SimTime deadline);
  void EvictIfNeeded();
  /// Current stats with the TimerSet mirrors filled from the live TimerSet.
  MonitorStats StatsNow() const {
    MonitorStats s = stats_;
    s.timers_armed = timers_.total_armed();
    s.timer_stale_pops = timers_.stale_popped();
    return s;
  }

  // --- per-event passes (bit k of stage_mask admits stage-k instances) ---
  void RunAbortPass(const DataplaneEvent& ev, std::uint64_t stage_mask);
  void RunAdvancePass(const DataplaneEvent& ev, std::uint64_t stage_mask);
  void RunNaiveRefreshPass(const DataplaneEvent& ev);
  void RunCreatePass(const DataplaneEvent& ev);
  void RunSuppressorPass(const DataplaneEvent& ev);

  std::optional<FlowKey> Stage0Key(
      const std::vector<std::optional<std::uint64_t>>& env) const;

  Property property_;
  MonitorConfig config_;
  InterpreterAblation ablation_;
  MonitorStats stats_;
  std::vector<Violation> violations_;

  SimTime now_ = SimTime::Zero();
  std::uint64_t event_seq_ = 0;
  std::uint64_t next_instance_id_ = 1;
  std::uint64_t rr_counter_ = 0;

  std::unordered_map<std::uint64_t, Instance> instances_;
  std::vector<StageStore> stores_;  // one per stage (index 0 unused)
  /// Dedup/refresh map: stage-0 binding projection -> instance ids.
  std::unordered_map<FlowKey, std::vector<std::uint64_t>, FlowKeyHash>
      stage0_index_;
  std::vector<VarId> stage0_bound_vars_;
  std::unordered_set<FlowKey, FlowKeyHash> suppressed_;
  /// Bounded-memory eviction (config_.eviction).
  /// Hooks are only called when ecfg_.enabled() — the disabled default
  /// costs one cached-bool test per lifecycle point.
  EvictionConfig ecfg_;
  bool evict_enabled_ = false;
  EvictionState eviction_;
  std::uint64_t evictions_capacity_ = 0;  // reason attribution (telemetry)
  std::uint64_t evictions_bytes_ = 0;
  TimerSet timers_;
};

}  // namespace swmon
