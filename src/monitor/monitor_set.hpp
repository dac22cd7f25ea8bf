// A bundle of monitor engines sharing one event stream, with pre-filtered
// dispatch.
//
// Attach a MonitorSet to a switch to check many properties at once. Instead
// of broadcasting every event to every engine, the set keeps one dispatch
// list per DataplaneEventType, built from each property's static interest
// signature (monitor/features.hpp): an event is delivered only to engines
// whose property has a pattern that can react to its type. With N properties
// attached, a packet touches only the interested subset — the per-packet
// cost the paper's Sec 3.3 wants held constant does not pay for properties
// that cannot match (bench_dispatch measures the ratio).
//
// Filtering is semantics-preserving: an event outside an engine's signature
// provably cannot change that engine's state except by advancing its clock,
// so filtered engines still receive the timestamp (NoteFilteredEvent) and
// their windows expire exactly as under broadcast delivery — including
// timeout-action observations in quiet periods via AdvanceTime.
//
// Lifecycle: properties can be attached and detached while the stream is
// live (AttachProperty/DetachProperty). Slots are never reused, detach
// drains the departing engine's violations to the caller, and resident
// engines keep their dispatch order and state — a lifecycle op is invisible
// to every property it does not name. DrainViolations() moves accumulated
// violations out of the set, the bounded-memory mode long-running daemons
// (src/daemon) use instead of letting per-engine vectors grow forever.
//
// Telemetry: counters are read through telemetry::Snapshot — either
// CollectInto()/TelemetrySnapshot() directly, or by attaching the set to a
// MetricsRegistry (AttachTelemetry), which also samples a per-event
// dispatch-latency histogram on the hot path. The instrumented and plain
// hot paths are the two specializations of DeliverEvent<bool>; the build's
// SWMON_TELEMETRY macro only selects which one OnDataplaneEvent uses, so
// bench_telemetry_overhead can compare both in a single binary.
//
// Batch mode (opt-in, SetBatching): instead of delivering each event the
// moment it arrives, the set parks events in a small buffer and hands the
// whole run to each engine's ProcessEventBatch when the window fills —
// engine-outer loop order, which keeps one engine's bytecode and tables
// hot across the run, and lets the compiled engine fold runs of filtered
// or provably inert events into one clock advance. Batching is
// invisible to every observable: any read that could see engine state
// (violations, telemetry, engine(), lifecycle ops, AdvanceTime,
// FlushEvents) first flushes the pending run, so callers see exactly the
// scalar-delivery state — same violations bit-for-bit, same counters. The
// only scalar feature the batch path does not replicate is the sampled
// dispatch-latency histogram (a per-event latency has no meaning for a
// buffered event). bench_batch and the daemon's pump drains are the
// intended users; the default window of 0 keeps every existing caller on
// the per-event path.
#pragma once

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "monitor/dispatch_table.hpp"
#include "monitor/property_monitor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace swmon {

/// `base`, suffixed with "#2", "#3", ... if already present in `taken` —
/// engines publish metrics under their property name, which need not be
/// unique within a set.
inline std::string UniqueEngineName(const std::vector<std::string>& taken,
                                    const std::string& base) {
  std::string name = base;
  int n = 1;
  while (std::find(taken.begin(), taken.end(), name) != taken.end())
    name = base + "#" + std::to_string(++n);
  return name;
}

/// Stable handle for one attached property within a set. Slot indices are
/// never reused: detaching property 3 and attaching a new one yields id 4
/// (or higher), so a stale id can never silently alias a different engine.
using PropertyId = std::size_t;

class MonitorSet : public DataplaneObserver {
 public:
  MonitorSet() = default;
  ~MonitorSet() override { DetachTelemetry(); }

  // Not copyable/movable: an attached registry collector captures `this`.
  MonitorSet(const MonitorSet&) = delete;
  MonitorSet& operator=(const MonitorSet&) = delete;

  /// Adds a property; returns the engine for inspection.
  PropertyMonitor& Add(Property property, MonitorConfig config = {}) {
    return *engines_[AttachProperty(std::move(property), config)];
  }

  /// Adds a property and returns its stable id (the hot-lifecycle entry
  /// point: swmond attaches tenant properties through this). The new
  /// engine's clock starts at zero and advances with the next delivered
  /// event, exactly as if the set had been built with it from the start of
  /// an empty stream.
  PropertyId AttachProperty(Property property, MonitorConfig config = {}) {
    FlushBatch();  // the new engine must not see buffered pre-attach events
    engine_names_.push_back(UniqueEngineName(engine_names_, property.name));
    engines_.push_back(CreatePropertyMonitor(std::move(property), config));
    PropertyMonitor* engine = engines_.back().get();
    dispatch_.Register(engine, static_cast<std::uint32_t>(engines_.size() - 1));
    return engines_.size() - 1;
  }

  /// Removes a property without disturbing any other engine: the detached
  /// engine's violations observed so far are drained and returned, its
  /// entries leave the dispatch lists (remaining order preserved), and its
  /// state is destroyed. Returns nullopt for an unknown or already-detached
  /// id. Resident engines are untouched — their dispatch order, state, and
  /// future violations are bit-identical to a run that never saw the
  /// detached property (monitor_lifecycle_test asserts this).
  std::optional<std::vector<Violation>> DetachProperty(PropertyId id) {
    if (id >= engines_.size() || engines_[id] == nullptr) return std::nullopt;
    FlushBatch();  // the departing engine still owes its buffered events
    std::vector<Violation> drained = engines_[id]->TakeViolations();
    dispatch_.Unregister(engines_[id].get());
    engines_[id].reset();
    return drained;
  }

  bool attached(PropertyId id) const {
    return id < engines_.size() && engines_[id] != nullptr;
  }

  /// Live (attached) engines; size() keeps counting slots.
  std::size_t attached_count() const {
    std::size_t n = 0;
    for (const auto& e : engines_)
      if (e) ++n;
    return n;
  }

  /// Moves every live engine's accumulated violations out (concatenated in
  /// attach order) and leaves the engines empty — the bounded-memory mode a
  /// resident daemon needs: violation storage is handed to the caller
  /// instead of growing inside the set for the process lifetime.
  std::vector<Violation> DrainViolations() {
    FlushBatch();
    std::vector<Violation> out;
    for (auto& e : engines_) {
      if (!e) continue;
      std::vector<Violation> v = e->TakeViolations();
      out.insert(out.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
    }
    return out;
  }

  /// Registers a snapshot-time collector with `registry` (so
  /// registry->TakeSnapshot() includes this set's counters) and arms the
  /// sampled dispatch-latency histogram `monitor.set.dispatch_latency_ns`.
  /// Pass nullptr to detach. The set deregisters itself on destruction;
  /// destroy the set before the registry.
  void AttachTelemetry(telemetry::MetricsRegistry* registry) {
    DetachTelemetry();
    registry_ = registry;
    if (registry_ == nullptr) return;
    latency_hist_ = &registry_->histogram("monitor.set.dispatch_latency_ns");
    collector_token_ = registry_->AddCollector(
        [this](telemetry::Snapshot& snap) { CollectInto(snap); });
  }

  void DetachTelemetry() {
    if (registry_ != nullptr) registry_->RemoveCollector(collector_token_);
    registry_ = nullptr;
    latency_hist_ = nullptr;
    collector_token_ = 0;
  }

  void OnDataplaneEvent(const DataplaneEvent& event) override {
    DeliverEvent<telemetry::kCompiledIn>(event);
  }

  /// The dispatch hot path. The kInstrumented=false specialization is the
  /// compile-time no-op telemetry path (identical to the pre-telemetry
  /// code); kInstrumented=true additionally samples every
  /// (kLatencySamplePeriod)-th delivery into the dispatch-latency
  /// histogram when a registry is attached. With batching enabled the
  /// event parks in the pending buffer instead (latency sampling does not
  /// apply — see SetBatching).
  template <bool kInstrumented>
  void DeliverEvent(const DataplaneEvent& event) {
    if (batch_window_ != 0) {
      pending_.push_back(event);
      if (pending_.size() >= batch_window_) FlushBatch();
      return;
    }
    if constexpr (kInstrumented) {
      if (latency_hist_ != nullptr &&
          (delivery_seq_++ % kLatencySamplePeriod) == 0) {
        const std::uint64_t t0 = telemetry::NowNanos();
        dispatch_.Deliver(event, events_dispatched_, events_filtered_);
        latency_hist_->Record(telemetry::NowNanos() - t0);
        return;
      }
    }
    dispatch_.Deliver(event, events_dispatched_, events_filtered_);
  }

  /// Enables (window >= 1) or disables (window = 0, the default) the
  /// internal micro-batcher: DeliverEvent buffers up to `window` events and
  /// flushes the run through each live engine's ProcessEventBatch. Any
  /// pending events are flushed before the window changes, so resizing
  /// mid-stream is safe. A window of 1 exercises the batch machinery with
  /// scalar-equivalent timing (useful for tests).
  void SetBatching(std::size_t window) {
    FlushBatch();
    batch_window_ = window;
    pending_.reserve(window);
  }
  std::size_t batch_window() const { return batch_window_; }

  /// Span delivery: feeds a contiguous run of events in order. With
  /// batching enabled the run executes directly out of the caller's
  /// storage in window-sized chunks — no per-event copy into the pending
  /// buffer — which is how zero-copy producers (replayed traces,
  /// bench_batch's laps) should feed a batched set. Without batching it is
  /// exactly the per-event loop. Observationally identical to calling
  /// OnDataplaneEvent on each element either way.
  void OnDataplaneEvents(const DataplaneEvent* events, std::size_t count) {
    if (batch_window_ == 0) {
      for (std::size_t i = 0; i < count; ++i)
        DeliverEvent<telemetry::kCompiledIn>(events[i]);
      return;
    }
    FlushBatch();  // buffered trickle events precede this run
    for (std::size_t off = 0; off < count;) {
      const std::size_t n = std::min(batch_window_, count - off);
      DeliverRun(events + off, n);
      off += n;
    }
  }

  /// Delivers any buffered events now (quiet-point hook: the switch calls
  /// this on its own flush, the daemon pump after each drain round).
  void FlushEvents() override { FlushBatch(); }

  void AdvanceTime(SimTime now) {
    FlushBatch();  // buffered events predate `now`; order the clocks
    for (auto& e : engines_)
      if (e) e->AdvanceTime(now);
  }

  /// Slot count (including detached slots — ids are never reused).
  std::size_t size() const { return engines_.size(); }
  PropertyMonitor& engine(std::size_t i) {
    FlushBatch();  // callers inspect engine state; make it current
    return *engines_[i];
  }
  const std::string& engine_name(std::size_t i) const {
    return engine_names_[i];
  }

  /// Publishes set-level counters (`monitor.set.events_dispatched`,
  /// `monitor.set.events_filtered`) plus every engine's counters
  /// (`monitor.engine.<name>.*`). ParallelMonitorSet emits the same names
  /// from its merged worker shards — the parity test compares the two
  /// snapshots for equality.
  void CollectInto(telemetry::Snapshot& snap) const {
    FlushBatch();
    snap.SetCounter("monitor.set.events_dispatched", events_dispatched_);
    snap.SetCounter("monitor.set.events_filtered", events_filtered_);
    // Batch-plumbing counters appear only when batching is on, so snapshots
    // from per-event sets (and the parallel set's merged snapshot) are
    // unchanged.
    if (batch_window_ != 0) {
      snap.SetCounter("monitor.set.batch.flushes", batch_flushes_);
      snap.SetCounter("monitor.set.batch.events", batch_events_);
    }
    for (std::size_t i = 0; i < engines_.size(); ++i)
      if (engines_[i]) engines_[i]->CollectInto(snap, engine_names_[i]);
  }

  telemetry::Snapshot TelemetrySnapshot() const {
    telemetry::Snapshot snap;
    CollectInto(snap);
    return snap;
  }

  /// Live engines' accumulated (undrained) violations, in attach order.
  /// Violations of since-detached properties are not included — they were
  /// handed to the DetachProperty caller.
  std::vector<Violation> AllViolations() const {
    FlushBatch();
    std::vector<Violation> out;
    for (const auto& e : engines_) {
      if (!e) continue;
      const auto& v = e->violations();
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }

  std::size_t TotalViolations() const {
    FlushBatch();
    std::size_t n = 0;
    for (const auto& e : engines_)
      if (e) n += e->violations().size();
    return n;
  }

 private:
  /// Sampling period for the dispatch-latency histogram: two steady_clock
  /// reads per sampled delivery, amortized to 1/64th of events so the
  /// instrumented path stays within the <3% overhead budget. 1/16th
  /// measured up to 4.4% once the compiled engine, which does less work
  /// per event than the interpreter, became the default.
  static constexpr std::uint64_t kLatencySamplePeriod = 64;

  /// Delivers the buffered run. Const because every observable read calls
  /// it (the pending buffer is a delivery detail, not logical state): a
  /// const MonitorSet with buffered events must answer queries as if they
  /// had been delivered, so the buffer and counters are mutable. Engine
  /// order is attach order — the same order DispatchTable walks per event —
  /// and each engine sees the full run in event order, so its event stream
  /// is identical to scalar delivery (engines never observe each other, so
  /// swapping the event/engine loop nesting is invisible).
  void FlushBatch() const {
    if (pending_.empty()) return;
    DeliverRun(pending_.data(), pending_.size());
    pending_.clear();
  }

  /// Executes one contiguous run through every live engine's
  /// ProcessEventBatch. Shared by FlushBatch (the pending buffer) and
  /// OnDataplaneEvents (caller spans).
  void DeliverRun(const DataplaneEvent* events, std::size_t count) const {
    for (const auto& e : engines_)
      if (e) e->ProcessEventBatch(events, count, nullptr);
    // Same per-delivery arithmetic as DispatchTable::Deliver — interested
    // engines count as dispatched, the rest as filtered — folded into one
    // multiply per event type.
    std::size_t type_counts[kNumDataplaneEventTypes] = {};
    for (std::size_t i = 0; i < count; ++i)
      ++type_counts[static_cast<std::size_t>(events[i].type)];
    for (std::size_t t = 0; t < kNumDataplaneEventTypes; ++t) {
      if (type_counts[t] == 0) continue;
      const DispatchTable::Lists& l =
          dispatch_.lists(static_cast<DataplaneEventType>(t));
      events_dispatched_ += type_counts[t] * l.interested.size();
      events_filtered_ += type_counts[t] * l.filtered.size();
    }
    batch_events_ += count;
    ++batch_flushes_;
  }

  std::vector<std::unique_ptr<PropertyMonitor>> engines_;
  std::vector<std::string> engine_names_;
  DispatchTable dispatch_;
  mutable std::uint64_t events_dispatched_ = 0;
  mutable std::uint64_t events_filtered_ = 0;
  std::uint64_t delivery_seq_ = 0;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::Histogram* latency_hist_ = nullptr;
  std::uint64_t collector_token_ = 0;

  // Micro-batcher state (SetBatching). All mutable: see FlushBatch.
  std::size_t batch_window_ = 0;
  mutable std::vector<DataplaneEvent> pending_;
  mutable std::uint64_t batch_flushes_ = 0;
  mutable std::uint64_t batch_events_ = 0;
};

}  // namespace swmon
