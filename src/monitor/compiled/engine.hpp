// The compiled monitor engine: executes the bytecode Program over packed
// per-instance state records.
//
// Observable behaviour is bit-identical to MonitorEngine on every input
// (violation streams including instance ids and binding order, plus every
// counter CollectInto publishes) — tests/compiled_engine_test.cpp holds
// the two to that contract differentially. What differs is the machine:
//
//   * Instance state lives in one flat u64 slab, `stride` words per
//     record (id, created, last-event-seq, stage|matches, bound-mask,
//     then the variable environment) — no per-instance allocation, no
//     std::optional, boundness is one bitmask word.
//   * Per-stage candidate indexes and the stage-0 dedup index are
//     open-addressed hash tables (OpenMap) from key tuples to slot
//     buckets; keys live in a flat pool, probing is linear with
//     tombstones, and lookups build their key in a reused scratch buffer
//     — the steady-state event path performs zero heap allocations.
//   * Pattern evaluation walks straight-line bytecode via computed goto
//     (GNU extensions; portable switch fallback), not the spec tree.
//   * Per-event-type stage masks let ProcessEvent skip the abort/advance
//     passes with one AND when no stage can react to the event's type.
//   * Aborts are prefiltered and probed by key, never walked per instance
//     unless they have no keyable term (monitor/abort_index.hpp).
//
// Timers are keyed by SLOT, not instance id: DestroyInstance cancels
// before any slot reuse, and TimerSet's generation counter makes a
// re-armed slot distinct from its stale heap entries, so expiry order
// (deadline, then arming order) is preserved exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "event/timer_set.hpp"
#include "monitor/compiled/bytecode.hpp"
#include "monitor/property_monitor.hpp"

namespace swmon::compiled {

/// Open-addressed map from u64 key tuples to slot buckets (vector of
/// record slots in insertion order). Linear probing, tombstones, resize
/// at ~70% occupancy. Key tuples are stored in one flat pool; width may
/// vary per entry (the suppression set mixes key shapes), so equality
/// compares (hash, length, values).
class OpenMap {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// FlowKey::Hash's FNV-style mixing, over a span of key words.
  static std::uint64_t HashKey(const std::uint64_t* key, std::uint32_t len) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint32_t i = 0; i < len; ++i) {
      h ^= key[i];
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return h;
  }

  /// Probe telemetry, published under monitor.compiled.* by the engine.
  /// Mutable state updated by const lookups; purely observational — batch
  /// and scalar execution of the same stream produce identical values,
  /// which the differential tests assert.
  struct ProbeStats {
    std::uint64_t probes = 0;          // Find/Insert lookups performed
    std::uint64_t probe_steps = 0;     // cells examined across lookups
    std::uint64_t shortkey_hits = 0;   // key compares resolved inline (k01)
    std::uint64_t shortkey_misses = 0; // key compares that chased pool_
    /// Probe-length histogram, bucket i = lookups whose probe sequence
    /// examined v cells with bit_width(v) == i (telemetry bucketing).
    std::uint64_t probe_len[16] = {};
  };
  const ProbeStats& probe_stats() const { return probe_; }

  /// Cell index holding the key, or kNone.
  std::uint32_t Find(const std::uint64_t* key, std::uint32_t len) const;
  /// Finds or creates the cell for the key.
  std::uint32_t Insert(const std::uint64_t* key, std::uint32_t len);
  /// Tombstones the cell and releases its bucket storage.
  void EraseAt(std::uint32_t cell);

  std::vector<std::uint32_t>& slots(std::uint32_t cell) {
    return cells_[cell].slots;
  }
  const std::vector<std::uint32_t>& slots(std::uint32_t cell) const {
    return cells_[cell].slots;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cells_.size(); }
  /// Visits every occupied cell (unspecified order — callers must not
  /// derive observable ordering from it; see RunAbortPass).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::uint32_t i = 0; i < cells_.size(); ++i)
      if (cells_[i].state == kFull) fn(cells_[i].slots);
  }
  std::size_t MemoryBytes() const;

 private:
  static constexpr std::uint8_t kEmpty = 0, kFull = 1, kTombstone = 2;
  struct Cell {
    std::uint64_t hash = 0;
    /// First two key words cached inline: for the short keys every Table-1
    /// property uses, equality never has to chase key_pos into pool_.
    std::uint64_t k01[2] = {0, 0};
    std::uint32_t key_pos = 0;
    std::uint16_t key_len = 0;
    std::uint8_t state = kEmpty;
    std::vector<std::uint32_t> slots;
  };

  bool KeyEquals(const Cell& c, std::uint64_t hash, const std::uint64_t* key,
                 std::uint32_t len) const {
    if (c.hash != hash || c.key_len != len) return false;
    if (len <= 2) {
      ++probe_.shortkey_hits;  // resolved from the inline k01 cache
      for (std::uint32_t i = 0; i < len; ++i)
        if (c.k01[i] != key[i]) return false;
      return true;
    }
    ++probe_.shortkey_misses;  // wide key: equality chases the pool
    for (std::uint32_t i = 0; i < len; ++i)
      if (pool_[c.key_pos + i] != key[i]) return false;
    return true;
  }
  void NoteProbe(std::uint64_t steps) const {
    ++probe_.probes;
    probe_.probe_steps += steps;
    unsigned b = 0;
    while (steps != 0) {  // bit_width
      ++b;
      steps >>= 1;
    }
    if (b >= 16) b = 15;
    ++probe_.probe_len[b];
  }
  void Rehash(std::size_t new_cap);

  std::vector<Cell> cells_;
  std::vector<std::uint64_t> pool_;
  std::size_t size_ = 0;        // full cells
  std::size_t used_ = 0;        // full + tombstoned cells
  std::size_t dead_words_ = 0;  // pool words owned by erased cells
  mutable ProbeStats probe_;
};

/// final: lets ProcessDispatchedEvent call ProcessEvent without a second
/// virtual dispatch (bench_dispatch's all-types guard times that path).
class CompiledEngine final : public PropertyMonitor {
 public:
  /// Compiles internally; asserts compiled::Lowerable(property) (callers
  /// that need the fallback path go through CreatePropertyMonitor).
  explicit CompiledEngine(Property property, MonitorConfig config = {});

  CompiledEngine(const CompiledEngine&) = delete;
  CompiledEngine& operator=(const CompiledEngine&) = delete;

  void ProcessEvent(const DataplaneEvent& event) override;
  void AdvanceTime(SimTime now) override;
  void ProcessDispatchedEvent(const DataplaneEvent& event) override {
    ++stats_.events_dispatched;
    ProcessEvent(event);
  }
  void NoteFilteredEvent(SimTime now) override {
    ++stats_.events_filtered;
    AdvanceTime(now);
  }

  /// Instance-sharded delivery: runs only the passes `stage_mask` selects
  /// (see PropertyMonitor::ProcessShardedEvent).
  void ProcessShardedEvent(const DataplaneEvent& event,
                           std::uint64_t stage_mask, bool count) override;

  /// Native batch execution: the scalar passes in event order, except that
  /// runs of filtered events, and (with no live instances) runs of
  /// provably inert dispatched events, fold into one counter bump and one
  /// AdvanceTime. Violations, counters and probe telemetry are
  /// bit-identical to the scalar loop.
  void ProcessEventBatch(const DataplaneEvent* events, std::size_t count,
                         BatchEventResult* results) override;

  std::uint64_t created_count() const override {
    return stats_.instances_created;
  }

  const Property& property() const override { return property_; }
  const Program& program() const { return prog_; }

  void CollectInto(telemetry::Snapshot& snap,
                   std::string_view name) const override;

  const std::vector<Violation>& violations() const override {
    return violations_;
  }
  std::vector<Violation> TakeViolations() override {
    return std::move(violations_);
  }
  std::size_t live_instances() const override { return live_count_; }
  SimTime now() const override { return now_; }
  std::size_t StateBytes() const override;

 private:
  /// Record word layout (stride_ = kWVars + num_vars).
  enum : std::uint32_t {
    kWId = 0,         // instance id
    kWCreated = 1,    // creation time, ns (bit pattern of SimTime nanos)
    kWSeq = 2,        // last event seq that advanced/created this instance
    kWStageMatch = 3, // stage (hi 32) | stage_matches (lo 32)
    kWBound = 4,      // bitmask of bound vars
    kWVars = 5,       // num_vars environment words
  };
  static constexpr std::uint32_t kDeadStage = 0xffffffffu;

  std::uint64_t* Rec(std::uint32_t slot) {
    return slab_.data() + static_cast<std::size_t>(slot) * stride_;
  }
  const std::uint64_t* Rec(std::uint32_t slot) const {
    return slab_.data() + static_cast<std::size_t>(slot) * stride_;
  }
  static std::uint32_t StageOf(const std::uint64_t* rec) {
    return static_cast<std::uint32_t>(rec[kWStageMatch] >> 32);
  }
  static std::uint32_t MatchesOf(const std::uint64_t* rec) {
    return static_cast<std::uint32_t>(rec[kWStageMatch]);
  }
  static void SetStageMatch(std::uint64_t* rec, std::uint32_t stage,
                            std::uint32_t matches) {
    rec[kWStageMatch] = (static_cast<std::uint64_t>(stage) << 32) | matches;
  }

  struct StageStore {
    OpenMap keyed;
    std::vector<std::uint32_t> scan;
    /// Abort-only indexes, parallel to StageCode::extra_indexes: slots
    /// whose key vars are all bound (DESIGN.md 5m). Allocate on first
    /// insert.
    std::vector<OpenMap> extra;
  };

  // --- bytecode execution ---
  bool ExecMatch(std::uint32_t pc, const FieldMap& fields,
                 const std::uint64_t* vars, std::uint64_t bound) const;
  bool EvalCond(const Instr& i, const FieldMap& fields,
                const std::uint64_t* vars, std::uint64_t bound) const;
  /// Runs a bind run against the record env in place. Returns false (with
  /// no mutation — presence checks all precede the first bind) when a
  /// required field is absent.
  bool ExecBind(std::uint32_t pc, const FieldMap& fields, std::uint64_t* vars,
                std::uint64_t& bound);

  // --- instance lifecycle (mirrors of engine.cpp) ---
  std::uint32_t AllocSlot();
  void InsertIntoStore(std::uint32_t slot);
  void RemoveFromStore(std::uint32_t slot);
  /// Builds, in key_buf_, the record's projection onto `count` vars read
  /// through `var_at(i)`; false when one of them is unbound.
  template <typename VarAt>
  bool BuildRecordKey(const std::uint64_t* rec, std::uint32_t count,
                      VarAt&& var_at);
  /// BuildRecordKey over the stage's link vars (false when it has none)
  /// or over an abort-only index's vars.
  bool BuildLinkKey(const std::uint64_t* rec, const StageCode& sc);
  bool BuildExtraKey(const std::uint64_t* rec, const Slice& x);
  void DestroyInstance(std::uint32_t slot);
  void AdvanceInstance(std::uint32_t slot, const DataplaneEvent* ev);
  void ArmWindow(std::uint32_t slot, const StageCode& completed,
                 const DataplaneEvent* ev);
  void ReportViolation(const std::uint64_t* rec, SimTime when,
                       const std::string& trigger,
                       std::uint32_t trigger_stage_index);
  void OnTimerExpiry(std::uint32_t slot, SimTime deadline);
  void EvictIfNeeded();
  /// Key of the stage-0 dedup index, built in key_buf_. Live records always
  /// have every stage-0 variable bound (stage 0's bind run bound them).
  void BuildStage0Key(const std::uint64_t* vars);

  // --- per-event passes ---
  /// The abort/advance/create/suppressor sequence shared by ProcessEvent
  /// (full mask) and ProcessShardedEvent (the replica's stage mask; bit 0
  /// gates create + suppressor).
  void RunPasses(const DataplaneEvent& ev, std::uint64_t stage_mask);
  /// Could RunCreatePass do anything observable for this event? False when
  /// the stage-0 type check or fail-fast rejects, or when a required
  /// (non-allow-absent) stage-0 pattern field is missing — the match then
  /// provably fails before any probe, counter, or bind. Used by the batch
  /// inert-run fold.
  bool WouldEnterCreate(const DataplaneEvent& ev) const;
  /// Is RunSuppressorPass provably a no-op for this event? True when every
  /// suppressor's pattern either rejects the event type or requires a field
  /// the event lacks (its ExecMatch fails side-effect-free).
  bool SuppressorsInert(const DataplaneEvent& ev) const;
  /// Shared ctor tail: the stage-0 fail-fast and the required-presence
  /// masks the batch inert-run fold consults.
  void InitFailFast();
  void RunAbortPass(const DataplaneEvent& ev, std::uint64_t stage_mask);
  void RunAdvancePass(const DataplaneEvent& ev, std::uint64_t stage_mask);
  void RunCreatePass(const DataplaneEvent& ev);
  void RunSuppressorPass(const DataplaneEvent& ev);

  Property property_;
  Program prog_;
  MonitorConfig config_;
  MonitorStats stats_;
  std::vector<Violation> violations_;

  SimTime now_ = SimTime::Zero();
  std::uint64_t event_seq_ = 0;
  std::uint64_t next_instance_id_ = 1;
  std::uint64_t rr_counter_ = 0;

  std::uint32_t stride_ = 0;
  std::vector<std::uint64_t> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  /// Per slot, its position in its stage's scan list (valid while it is
  /// filed there): scan removal is an O(1) swap-remove.
  std::vector<std::uint32_t> scan_pos_;

  std::vector<StageStore> stores_;  // one per stage (index 0 unused)
  /// Stage-0 fail-fast: when the stage-0 pattern opens with a constant
  /// condition, a copy of that instruction is checked inline in
  /// ProcessEvent before paying the create-pass call. Identical to the
  /// first step ExecMatch would take, so skipping is unobservable.
  /// st0_fast_whole_ additionally records that this condition IS the whole
  /// pattern, letting the create pass skip its ExecMatch call outright.
  bool st0_fast_valid_ = false;
  bool st0_fast_whole_ = false;
  Instr st0_fast_{};
  /// Presence mask of every field a required (pre-kForbidden,
  /// non-allow-absent) stage-0 pattern condition reads: an event missing
  /// any of them provably fails the match — see WouldEnterCreate.
  std::uint64_t st0_need_ = 0;
  /// Per-suppressor inertness guards (type + required presence), same
  /// derivation as st0_need_ — see SuppressorsInert.
  struct SupGuard {
    std::int8_t event_type;
    std::uint64_t need;
  };
  std::vector<SupGuard> sup_guards_;
  OpenMap stage0_index_;
  OpenMap suppressed_;  // set: buckets unused

  struct EvictionEntry {
    std::uint64_t id;
    std::uint32_t slot;
  };
  /// Bounded-memory eviction, driven through the exact hook points the
  /// interpreter uses (monitor/eviction.hpp) — decisions are bit-identical
  /// by construction; the handle stored per id is the slab slot.
  EvictionConfig ecfg_;
  bool evict_enabled_ = false;
  EvictionState eviction_;
  std::uint64_t evictions_capacity_ = 0;
  std::uint64_t evictions_bytes_ = 0;
  TimerSet timers_;

  // Reused per-event scratch (what keeps the hot path allocation-free).
  std::vector<std::uint64_t> scratch_vars_;
  std::vector<std::uint64_t> key_buf_;
  std::vector<std::uint32_t> cand_;
  std::vector<std::uint32_t> live_aborts_;
  std::vector<EvictionEntry> abort_cand_;
  std::vector<EvictionEntry> victims_;
};

}  // namespace swmon::compiled

namespace swmon {
using compiled::CompiledEngine;
}  // namespace swmon
