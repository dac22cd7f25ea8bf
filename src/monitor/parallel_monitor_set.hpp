// Parallel sharded monitor execution (the worker-pool MonitorSet).
//
// Thirteen Table-1 engines behind a serial MonitorSet still execute on one
// core; aggregate throughput is capped at single-thread speed no matter how
// many properties the interest-signature filter skips. Real switches get
// their throughput from stage parallelism, and engines are independent
// state machines — no instance, timer, or suppressor is shared across
// properties — so engine-level sharding is semantics-preserving by
// construction (and asserted by the parity test, not by argument).
//
// Threading model
//   * One producer (whatever thread feeds OnDataplaneEvent) fills recycled
//     slab batches in place (event/event_batch.hpp) — zero per-event heap
//     allocations in steady state — and publishes each full batch by raw
//     pointer to every worker's SPSC ring (event/spsc_ring.hpp). The last
//     worker to finish a batch returns it to the pool's freelist.
//   * Each worker owns a disjoint subset of the property-sharded engines
//     plus a private DispatchTable over that shard, and runs the existing
//     interest-signature loop over every batch in order; workers drain
//     whole ring runs at once (TryPopRun), so ring synchronisation is
//     amortized across everything queued since they last looked.
//   * Flush rules: a batch is published when full; Flush()/AdvanceTime()/
//     any query accessor publish the partial batch and quiesce (wait until
//     every worker has consumed every published batch), so timeout
//     semantics and observable state match serial execution exactly at
//     those points. Stop() flushes, closes the rings, and joins.
//
// Sharding modes (ParallelConfig::shard_mode)
//   * kProperty (default): each property is pinned to one worker by greedy
//     cost balancing (longest-processing-time over CalibrateShardWeights or
//     caller weights). Simple, zero cross-worker coordination — but a
//     single hot property cannot scale past one core.
//   * kInstance: every property that BuildShardPlan (shard_plan.hpp) proves
//     analyzable is split ACROSS all workers by instance identity: the
//     producer hashes each event's routing fields once into the batch's
//     route lanes; every worker derives a per-event stage mask from the
//     lanes it owns and runs only the passes for its own instances
//     (PropertyMonitor::ProcessShardedEvent) on its private engine replica.
//     Ineligible properties fall back to property-level sharding.
//   * kAuto: instance-shard eligible properties only when the pool has more
//     workers than live properties (where property-level sharding provably
//     leaves cores idle).
//
// Determinism
//   Property-sharded engines process the full stream exactly as under
//   serial dispatch, so their violation lists and stats are bit-identical
//   to MonitorSet's. Instance-sharded properties are reassembled to the
//   same guarantee: replica-local instance ids are renumbered back to the
//   serial creation sequence (workers log the event seq of every creation;
//   the quiesce-point merge orders creations by seq), and every violation
//   carries a marker — (event seq, attach slot, replica, phase, index) —
//   that the merge sorts into exactly the serial engine's emission order:
//   clock-advance (timer) violations first in (deadline, instance id) order
//   — the timer heap's order, reproducible across replicas because engines
//   arm timers with the instance id as the tie ordinal — then match-pass
//   violations highest-stage-first, exactly like the serial advance pass.
//   AllViolations() and MergedViolations() are therefore bit-identical to
//   serial for EVERY worker count, batch size, and schedule; the
//   instance-shard parity test asserts this across the Table-1 catalog.
//
// Lifecycle
//   Properties hot-attach and hot-detach at the same quiesce quiet-point
//   (instance-sharded ones too: attach builds W fresh replicas and grows
//   the route stride; detach retires every replica's violations, which stay
//   resolvable for merges until DrainViolations). Slots are never reused.
//
// bench_parallel sweeps workers x properties x batch size — including the
// single-hot-property instance-sharding sweep — and reports events/sec
// against the serial baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/threading.hpp"
#include "event/event_batch.hpp"
#include "event/spsc_ring.hpp"
#include "monitor/dispatch_table.hpp"
#include "monitor/monitor_set.hpp"
#include "monitor/shard_plan.hpp"

namespace swmon {

/// How properties map onto workers; see the header comment.
enum class ShardMode : std::uint8_t {
  kProperty = 0,  // one worker per property (classic)
  kInstance,      // split each analyzable property across all workers
  kAuto,          // instance-shard only when workers > live properties
};

struct ParallelConfig {
  /// Worker threads. 0 = HardwareWorkerCount().
  std::size_t workers = 0;
  /// Events per published batch (the producer-side sync granularity).
  std::size_t batch_capacity = 256;
  /// Batches in flight per worker ring before the producer blocks
  /// (backpressure bound: ring_capacity * batch_capacity events). Also
  /// sizes the slab pool (ring_capacity + 2 batches).
  std::size_t ring_capacity = 64;
  /// Pin worker i to CPU i (hint; ignored where unsupported).
  bool pin_threads = false;
  ShardMode shard_mode = ShardMode::kProperty;
};

/// Computes per-engine shard weights by replaying `sample` through a
/// throwaway engine per property: weight = 1 + candidate_checks, the count
/// of instances the engine actually examined — a direct proxy for its
/// per-event cost on traffic shaped like the sample.
std::vector<double> CalibrateShardWeights(
    const std::vector<Property>& properties,
    const std::vector<DataplaneEvent>& sample, MonitorConfig config = {});

/// Greedy LPT assignment: heaviest engine first, each to the lightest
/// worker so far. Deterministic (ties break toward the lower engine index /
/// lower worker id). Returns shard index per engine.
std::vector<std::size_t> GreedyAssignShards(const std::vector<double>& weights,
                                            std::size_t workers);

class ParallelMonitorSet : public DataplaneObserver {
 public:
  explicit ParallelMonitorSet(ParallelConfig config = {});
  ~ParallelMonitorSet() override;

  ParallelMonitorSet(const ParallelMonitorSet&) = delete;
  ParallelMonitorSet& operator=(const ParallelMonitorSet&) = delete;

  /// Adds a property (before Start only). `weight` feeds shard balancing;
  /// pass CalibrateShardWeights() output for cost-balanced shards, or leave
  /// 1.0 for uniform.
  PropertyMonitor& Add(Property property, MonitorConfig config = {},
                       double weight = 1.0);

  /// Adds a property and returns its stable slot id. Before Start() this is
  /// Add(); after Start() it is a *hot attach*: the producer quiesces the
  /// pool at the flush quiet-point (every published batch consumed, workers
  /// parked on empty rings), slots the new engine onto the lightest shard —
  /// or, when the shard mode takes it, builds a replica per worker and
  /// instance-shards it — and resumes. Producer-thread-only, like every
  /// other quiescing entry point.
  PropertyId AttachProperty(Property property, MonitorConfig config = {},
                            double weight = 1.0);

  /// Hot-detaches a property at the quiesce point: drains and returns its
  /// violations observed so far (in the serial emission order, with serial
  /// instance ids — even when the property was instance-sharded),
  /// unregisters it, and destroys its engine(s). Violations it produced
  /// that are still referenced by merge markers stay resolvable (retained
  /// internally until DrainViolations). Returns nullopt for an unknown or
  /// already-detached id. Producer-thread-only.
  std::optional<std::vector<Violation>> DetachProperty(PropertyId id);

  bool attached(PropertyId id) const {
    return id < engines_.size() && engines_[id] != nullptr;
  }
  std::size_t attached_count() const {
    std::size_t n = 0;
    for (const auto& e : engines_)
      if (e) ++n;
    return n;
  }

  /// Quiesces, then moves every accumulated violation out in merged stream
  /// order — identical to MergedViolations() — clearing engine violation
  /// vectors, worker merge markers, and retained detached-engine
  /// violations. The bounded-memory mode for long-running daemons.
  /// Producer-thread-only.
  std::vector<Violation> DrainViolations();

  /// Shards the engines, builds the slab pool, and launches the worker
  /// pool. Add() is frozen after this (AttachProperty stays available as a
  /// hot attach).
  void Start();
  bool started() const { return started_; }

  /// Producer entry point: appends to the current slab batch (and fills its
  /// shard-route lanes), publishing to every worker when full. Events must
  /// arrive in non-decreasing time order.
  void OnDataplaneEvent(const DataplaneEvent& event) override;

  /// Publishes the partial batch and waits until every worker has drained
  /// its ring. On return, engine state is exactly the serial state after
  /// the same prefix of events, and is safe to read from this thread.
  void Flush();
  void FlushEvents() override { Flush(); }

  /// Flush + advance every engine's clock (fires elapsed windows exactly
  /// as serial MonitorSet::AdvanceTime would).
  void AdvanceTime(SimTime now);

  /// Flushes, closes the rings, joins the pool. Engines stay readable;
  /// further events are a programming error. Idempotent.
  void Stop();

  // --- accessors (all quiesce first, so they are producer-thread-only) ---
  /// Slot count, including detached slots (ids are never reused).
  std::size_t size() const { return engines_.size(); }
  /// Slot i's engine. For an instance-sharded property this is replica 0;
  /// cross-replica aggregates come from CollectInto / the violation APIs.
  PropertyMonitor& engine(std::size_t i) { return *engines_[i]; }
  std::size_t worker_count() const { return workers_.size(); }
  /// Which worker engine i was sharded onto (Start() required). Meaningful
  /// for property-sharded slots only; instance-sharded slots report 0.
  std::size_t shard_of(std::size_t engine_index) const {
    return shard_of_[engine_index];
  }
  /// Whether slot i is instance-sharded across the workers.
  bool instance_sharded(std::size_t i) const {
    return i < group_of_slot_.size() && group_of_slot_[i] != nullptr &&
           !group_of_slot_[i]->detached;
  }

  const std::string& engine_name(std::size_t i) const {
    return engine_names_[i];
  }

  /// Quiesces, then publishes the same `monitor.set.*` / `monitor.engine.
  /// <name>.*` names a serial MonitorSet over the same stream would — for
  /// instance-sharded properties the per-replica counters are summed (and
  /// peak_live exactly reconstructed from per-event live logs) so the
  /// merged values equal the serial engine's. Additionally publishes
  /// parallel-runtime-only `monitor.parallel.*` metrics: slab-pool reuse /
  /// allocation / backpressure counters, per-worker ring high-water marks,
  /// and per-replica live-instance gauges for each sharded property.
  /// Merging only happens here, at the quiesce point, which is what keeps
  /// the per-worker counters TSan-clean.
  void CollectInto(telemetry::Snapshot& snap);
  telemetry::Snapshot TelemetrySnapshot() {
    telemetry::Snapshot snap;
    CollectInto(snap);
    return snap;
  }

  /// Registers a snapshot-time collector (see MonitorSet::AttachTelemetry).
  /// Because collection quiesces, registry->TakeSnapshot() becomes
  /// producer-thread-only once a parallel set is attached. Pass nullptr to
  /// detach; the set also detaches itself on destruction.
  void AttachTelemetry(telemetry::MetricsRegistry* registry);

  /// Live properties' undrained violations concatenated in attach order —
  /// bit-identical to serial MonitorSet::AllViolations() on the same
  /// stream (and the same lifecycle ops), for every shard mode.
  std::vector<Violation> AllViolations();
  /// Undrained violations interleaved into global stream order — identical
  /// for every worker count. Includes violations of since-detached
  /// properties (they happened in the stream) until DrainViolations clears
  /// them.
  std::vector<Violation> MergedViolations();
  std::size_t TotalViolations();

 private:
  /// Merge key for one violation: where in the stream it fired.
  struct ViolationMarker {
    std::uint64_t seq;              // global sequence of the triggering event
    std::uint32_t engine_index;     // attach order, the serial dispatch order
    std::uint32_t violation_index;  // index into that replica's violations()
    std::uint16_t replica;          // worker replica (0 for property-sharded)
    /// 0 = fired by the clock advance (timer expiry), 1 = by the match
    /// passes. Serial ProcessEvent fires timers before matching, so phase
    /// orders an instance-sharded event's violations; property-sharded
    /// slots order by violation_index alone (single emitter).
    std::uint8_t phase;
  };

  /// One instance-sharded property: a plan, one engine replica per worker,
  /// and the producer-side merge state that reassembles serial semantics.
  struct ShardedGroup {
    PropertyId slot = 0;
    ShardPlan plan;
    /// First route-lane word this group owns within a batch's per-item
    /// stride (lane j of the event's type lives at lane_base + j).
    std::uint32_t lane_base = 0;
    /// replicas[w] runs on worker w; [0] aliases engines_[slot], the rest
    /// are owned below. Cleared at detach.
    std::vector<PropertyMonitor*> replicas;
    std::vector<std::unique_ptr<PropertyMonitor>> owned;
    bool detached = false;

    /// serial_ids[r][k]: the serial-execution instance id of replica r's
    /// (k+1)-th created instance (replica-local ids are sequential from 1).
    /// Grows monotonically at quiesce merges; retained across drains so
    /// undrained violations keep renumbering.
    std::vector<std::vector<std::uint64_t>> serial_ids;
    std::uint64_t next_serial_id = 1;

    /// Exact peak_live reconstruction: last merged live count per replica,
    /// their running sum, and the ratchet max over end-of-event totals —
    /// the same sample points serial ProcessEvent uses.
    std::vector<std::int64_t> merged_live;
    std::int64_t merged_total = 0;
    std::int64_t merged_peak = 0;

    /// Worker-side logs, one cache line per replica. Written by worker w
    /// between ring pops, drained by the producer at quiesce (the consumed
    /// counter's release/acquire pair is the publication edge).
    struct alignas(64) ReplicaLog {
      std::uint64_t prev_created = 0;
      std::size_t prev_live = 0;
      std::vector<std::uint64_t> creation_seqs;  // event seq per creation
      /// (seq, live-after) whenever the event changed the live count.
      std::vector<std::pair<std::uint64_t, std::size_t>> live_log;
    };
    std::vector<ReplicaLog> logs;
  };

  struct Worker {
    explicit Worker(std::size_t ring_capacity) : ring(ring_capacity) {}
    SpscRing<SlabBatch<DataplaneEvent>*> ring;
    std::thread thread;
    DispatchTable table;  // this worker's property-sharded engines only
    std::vector<std::size_t> engine_indices;
    // Written by the worker between ring pops, read by the producer only
    // after Quiesce() — the consumed counter's release/acquire pair is the
    // publication edge.
    std::uint64_t dispatched = 0;
    std::uint64_t filtered = 0;
    std::vector<ViolationMarker> markers;
    /// Per-batch scratch for the batch entry points (sized once, reused).
    std::vector<ShardedBatchOp> ops;
    std::vector<BatchEventResult> results;
    /// Producer-side: max ring occupancy observed right after a push.
    std::size_t ring_high_water = 0;
    PaddedAtomic<std::uint64_t> batches_consumed;
  };

  void WorkerLoop(Worker& worker, std::size_t worker_index);
  void ProcessBatch(Worker& worker, std::size_t worker_index,
                    const SlabBatch<DataplaneEvent>& batch);
  /// Seals the in-fill batch and pushes it to every worker ring.
  void PublishCurrent();
  /// Publish the partial batch, wait for all workers to drain, then fold
  /// the workers' creation/live logs into the groups' merge state.
  void Quiesce();
  /// Builds a ShardedGroup (one replica per worker) for slot `id`.
  void MakeSharded(PropertyId id, ShardPlan plan);
  /// (Re)creates the slab pool when the route stride grew; counters carry
  /// over via the *_base_ accumulators.
  void RebuildPool();
  /// Instance-shard this property under the current mode? (kAuto: only
  /// when live properties < workers.)
  bool WantInstanceShard(std::size_t live_properties) const;
  void MergeGroupLogs(ShardedGroup& g);
  std::uint64_t SerialInstanceId(const ShardedGroup& g, std::uint32_t replica,
                                 std::uint64_t local_id) const;
  /// Resolves one marker to its (replica-local) violation — from the live
  /// engine, or from the retained lists when the slot has been detached.
  const Violation& Resolve(const ViolationMarker& m) const;
  /// Resolve + rewrite the instance id to the serial sequence.
  Violation Materialize(const ViolationMarker& m) const;
  bool MarkerLess(const ViolationMarker& a, const ViolationMarker& b) const;
  std::vector<Violation> MergeFromMarkers(
      const std::vector<ViolationMarker>& markers) const;
  std::vector<ViolationMarker> GatherSortedMarkers() const;
  /// The slot's undrained violations in serial emission order (markers
  /// filtered to the slot, sorted, materialized).
  std::vector<Violation> MaterializeSlot(PropertyId id) const;
  void CollectSharded(const ShardedGroup& g, const std::string& name,
                      telemetry::Snapshot& snap) const;

  ParallelConfig config_;
  std::vector<std::unique_ptr<PropertyMonitor>> engines_;
  std::vector<std::string> engine_names_;
  std::vector<MonitorConfig> configs_;  // per slot, for replica construction
  /// Per-slot, per-replica violations retained at detach so outstanding
  /// merge markers keep resolving; cleared by DrainViolations.
  /// Property-sharded slots use a single replica-0 list.
  std::vector<std::vector<std::vector<Violation>>> retired_;
  telemetry::MetricsRegistry* registry_ = nullptr;
  std::uint64_t collector_token_ = 0;
  std::vector<double> weights_;
  std::vector<std::size_t> shard_of_;
  /// Summed weights per worker; hot attach sends the new engine to the
  /// lightest shard.
  std::vector<double> worker_load_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Instance-shard state. groups_ owns; group_of_slot_ maps slot -> group
  /// (kept after detach for id renumbering); active_groups_ is what the
  /// producer fills lanes for and workers walk per event — mutated only at
  /// quiesce, published by the next ring push.
  std::vector<std::unique_ptr<ShardedGroup>> groups_;
  std::vector<ShardedGroup*> group_of_slot_;
  std::vector<ShardedGroup*> active_groups_;

  std::unique_ptr<BatchPool<DataplaneEvent>> pool_;
  SlabBatch<DataplaneEvent>* cur_ = nullptr;  // batch being filled
  std::uint64_t next_seq_ = 0;                // global event sequence
  /// Route words per batch item = sum of active groups' max_lanes. Only
  /// grows (detached groups keep their lane span), so batches stay valid.
  std::uint32_t route_stride_ = 0;
  /// Pool counter carry-over across RebuildPool.
  std::uint64_t pool_reused_base_ = 0;
  std::uint64_t pool_allocated_base_ = 0;
  std::uint64_t pool_exhausted_base_ = 0;

  std::uint64_t batches_published_ = 0;
  /// Violations fired by producer-side AdvanceTime (post-quiesce), keyed at
  /// the next event sequence so they merge where serial would emit them.
  std::vector<ViolationMarker> advance_markers_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace swmon
