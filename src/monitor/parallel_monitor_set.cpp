#include "monitor/parallel_monitor_set.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"

namespace swmon {

std::vector<double> CalibrateShardWeights(
    const std::vector<Property>& properties,
    const std::vector<DataplaneEvent>& sample, MonitorConfig config) {
  std::vector<double> weights;
  weights.reserve(properties.size());
  for (const Property& p : properties) {
    // The engine that will run: candidate_checks is bit-identical across
    // engines, so the weights do not depend on the choice.
    const std::unique_ptr<PropertyMonitor> probe =
        CreatePropertyMonitor(p, config);
    const EventTypeMask sig = probe->interest_signature();
    for (const DataplaneEvent& ev : sample) {
      if (sig >> static_cast<std::size_t>(ev.type) & 1) {
        probe->ProcessEvent(ev);
      } else {
        probe->AdvanceTime(ev.time);  // mirror the filtered clock-only path
      }
    }
    // candidate_checks counts instances examined across lookups — the
    // dominant per-event cost. +1 keeps never-matching engines schedulable.
    telemetry::Snapshot snap;
    probe->CollectInto(snap, "probe");
    weights.push_back(1.0 + static_cast<double>(snap.counter(
                                "monitor.engine.probe.candidate_checks")));
  }
  return weights;
}

std::vector<std::size_t> GreedyAssignShards(const std::vector<double>& weights,
                                            std::size_t workers) {
  SWMON_ASSERT(workers > 0);
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weights[a] > weights[b];
  });
  std::vector<double> load(workers, 0.0);
  std::vector<std::size_t> shard(weights.size(), 0);
  for (const std::size_t i : order) {
    const std::size_t lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    shard[i] = lightest;
    load[lightest] += weights[i];
  }
  return shard;
}

ParallelMonitorSet::ParallelMonitorSet(ParallelConfig config)
    : config_(config) {
  if (config_.workers == 0) config_.workers = HardwareWorkerCount();
  if (config_.batch_capacity == 0) config_.batch_capacity = 1;
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

ParallelMonitorSet::~ParallelMonitorSet() {
  AttachTelemetry(nullptr);
  Stop();
}

bool ParallelMonitorSet::WantInstanceShard(std::size_t live_properties) const {
  switch (config_.shard_mode) {
    case ShardMode::kProperty:
      return false;
    case ShardMode::kInstance:
      return true;
    case ShardMode::kAuto:
      // Property-level sharding already saturates the pool once there are
      // at least as many properties as workers.
      return live_properties < workers_.size();
  }
  return false;
}

void ParallelMonitorSet::MakeSharded(PropertyId id, ShardPlan plan) {
  auto g = std::make_unique<ShardedGroup>();
  g->slot = id;
  g->plan = std::move(plan);
  g->lane_base = route_stride_;
  route_stride_ += g->plan.max_lanes;
  const std::size_t n_workers = workers_.size();
  g->replicas.resize(n_workers);
  g->replicas[0] = engines_[id].get();
  for (std::size_t r = 1; r < n_workers; ++r) {
    g->owned.push_back(
        CreatePropertyMonitor(engines_[id]->property(), configs_[id]));
    g->replicas[r] = g->owned.back().get();
  }
  g->serial_ids.resize(n_workers);
  g->merged_live.assign(n_workers, 0);
  g->logs = std::vector<ShardedGroup::ReplicaLog>(n_workers);
  group_of_slot_[id] = g.get();
  active_groups_.push_back(g.get());
  groups_.push_back(std::move(g));
}

void ParallelMonitorSet::RebuildPool() {
  if (pool_ != nullptr && pool_->route_stride() == route_stride_) return;
  // Only called at quiesce points (every batch consumed and released), so
  // dropping the old pool cannot free a batch a worker still reads.
  SWMON_ASSERT(cur_ == nullptr);
  if (pool_ != nullptr) {
    pool_reused_base_ += pool_->reused();
    pool_allocated_base_ += pool_->allocated();
    pool_exhausted_base_ += pool_->exhausted_waits();
  }
  pool_ = std::make_unique<BatchPool<DataplaneEvent>>(
      config_.batch_capacity, route_stride_, config_.ring_capacity + 2);
}

PropertyMonitor& ParallelMonitorSet::Add(Property property,
                                         MonitorConfig config, double weight) {
  SWMON_ASSERT_MSG(!started_,
                   "Add() after Start(); use AttachProperty for hot attach");
  return *engines_[AttachProperty(std::move(property), config, weight)];
}

PropertyId ParallelMonitorSet::AttachProperty(Property property,
                                              MonitorConfig config,
                                              double weight) {
  SWMON_ASSERT_MSG(!stopped_, "AttachProperty() after Stop()");
  if (weight <= 0) weight = 1.0;
  const PropertyId id = engines_.size();
  engine_names_.push_back(UniqueEngineName(engine_names_, property.name));
  engines_.push_back(CreatePropertyMonitor(std::move(property), config));
  configs_.push_back(config);
  retired_.emplace_back();
  weights_.push_back(weight);
  group_of_slot_.push_back(nullptr);
  if (started_) {
    // Hot attach: the quiesce leaves every worker parked between ring pops,
    // so the producer owns the dispatch tables and the group list. The
    // mutation is published to the workers by the next batch push (the
    // ring's release/acquire pair), before a worker can touch either again.
    Quiesce();
    if (WantInstanceShard(attached_count())) {
      if (auto plan = BuildShardPlan(engines_[id]->property(), configs_[id])) {
        shard_of_.push_back(0);  // placeholder: sharded slots span all workers
        MakeSharded(id, std::move(*plan));
        RebuildPool();
        return id;
      }
    }
    const std::size_t w = static_cast<std::size_t>(
        std::min_element(worker_load_.begin(), worker_load_.end()) -
        worker_load_.begin());
    shard_of_.push_back(w);
    worker_load_[w] += weight;
    workers_[w]->table.Register(engines_[id].get(),
                                static_cast<std::uint32_t>(id));
    workers_[w]->engine_indices.push_back(id);
  }
  return id;
}

std::optional<std::vector<Violation>> ParallelMonitorSet::DetachProperty(
    PropertyId id) {
  if (id >= engines_.size() || engines_[id] == nullptr) return std::nullopt;
  if (started_) Quiesce();
  ShardedGroup* g = group_of_slot_[id];
  if (g != nullptr && !g->detached) {
    // Retire every replica's violations so outstanding markers (and the
    // drained return value) stay resolvable, then tear the replicas down.
    auto& retired = retired_[id];
    retired.resize(g->replicas.size());
    for (std::size_t r = 0; r < g->replicas.size(); ++r)
      retired[r] = g->replicas[r]->TakeViolations();
    g->detached = true;
    g->replicas.clear();
    engines_[id].reset();
    g->owned.clear();
    active_groups_.erase(
        std::remove(active_groups_.begin(), active_groups_.end(), g),
        active_groups_.end());
    // Serial-order drain: the slot's markers over the retired lists.
    return MaterializeSlot(id);
  }
  PropertyMonitor* engine = engines_[id].get();
  std::vector<Violation> drained = engine->TakeViolations();
  // Keep a copy resolvable for merge markers already recorded by workers;
  // DrainViolations clears it.
  retired_[id].assign(1, drained);
  if (started_) {
    const std::size_t w = shard_of_[id];
    workers_[w]->table.Unregister(engine);
    auto& indices = workers_[w]->engine_indices;
    indices.erase(std::remove(indices.begin(), indices.end(), id),
                  indices.end());
    worker_load_[w] -= weights_[id];
  }
  engines_[id].reset();
  return drained;
}

std::vector<Violation> ParallelMonitorSet::DrainViolations() {
  Quiesce();
  std::vector<Violation> out = MergeFromMarkers(GatherSortedMarkers());
  for (auto& w : workers_) w->markers.clear();
  advance_markers_.clear();
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (!engines_[i]) continue;
    ShardedGroup* g = group_of_slot_[i];
    if (g != nullptr && !g->detached) {
      for (PropertyMonitor* rep : g->replicas) rep->TakeViolations();
    } else {
      engines_[i]->TakeViolations();
    }
  }
  for (auto& r : retired_) r.clear();
  return out;
}

void ParallelMonitorSet::AttachTelemetry(telemetry::MetricsRegistry* registry) {
  if (registry_ != nullptr) registry_->RemoveCollector(collector_token_);
  registry_ = registry;
  collector_token_ = 0;
  if (registry_ != nullptr) {
    collector_token_ = registry_->AddCollector(
        [this](telemetry::Snapshot& snap) { CollectInto(snap); });
  }
}

void ParallelMonitorSet::CollectSharded(const ShardedGroup& g,
                                        const std::string& name,
                                        telemetry::Snapshot& snap) const {
  // Sum the replicas' counters and additive gauges into the property's one
  // logical engine entry; instances are partitioned across replicas and
  // events are count-attributed to exactly one, so the sums equal the
  // serial engine's values.
  telemetry::Snapshot acc;
  for (const PropertyMonitor* rep : g.replicas) {
    telemetry::Snapshot tmp;
    rep->CollectInto(tmp, name);
    for (const auto& [key, s] : tmp.samples()) {
      if (s.kind == telemetry::Sample::Kind::kCounter) {
        acc.AddCounter(key, s.counter);
      } else if (s.kind == telemetry::Sample::Kind::kGauge) {
        acc.SetGauge(key, acc.gauge(key) + s.gauge);
      }
    }
  }
  // peak_live is the one non-additive stat: replica peaks need not line up
  // in time. The merge state reconstructs the exact serial peak from the
  // per-event live logs.
  acc.SetGauge("monitor.engine." + name + ".peak_live", g.merged_peak);
  for (const auto& [key, s] : acc.samples()) {
    if (s.kind == telemetry::Sample::Kind::kCounter) {
      snap.SetCounter(key, s.counter);
    } else {
      snap.SetGauge(key, s.gauge);
    }
  }
}

void ParallelMonitorSet::CollectInto(telemetry::Snapshot& snap) {
  Quiesce();
  std::uint64_t dispatched = 0;
  std::uint64_t filtered = 0;
  for (const auto& w : workers_) {
    dispatched += w->dispatched;
    filtered += w->filtered;
  }
  snap.SetCounter("monitor.set.events_dispatched", dispatched);
  snap.SetCounter("monitor.set.events_filtered", filtered);
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (!engines_[i]) continue;
    const ShardedGroup* g = group_of_slot_[i];
    if (g != nullptr && !g->detached) {
      CollectSharded(*g, engine_names_[i], snap);
    } else {
      engines_[i]->CollectInto(snap, engine_names_[i]);
    }
  }
  if (!started_) return;
  // Parallel-runtime-only metrics (absent from the serial set; parity
  // comparisons filter the monitor.parallel. prefix).
  snap.SetCounter("monitor.parallel.batch_pool.reused",
                  pool_reused_base_ + pool_->reused());
  snap.SetCounter("monitor.parallel.batch_pool.allocated",
                  pool_allocated_base_ + pool_->allocated());
  snap.SetCounter("monitor.parallel.batch_pool.exhausted_waits",
                  pool_exhausted_base_ + pool_->exhausted_waits());
  snap.SetGauge("monitor.parallel.workers",
                static_cast<std::int64_t>(workers_.size()));
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    snap.SetGauge("monitor.parallel.worker." + std::to_string(w) +
                      ".ring_high_water",
                  static_cast<std::int64_t>(workers_[w]->ring_high_water));
  }
  for (const ShardedGroup* g : active_groups_) {
    for (std::size_t r = 0; r < g->replicas.size(); ++r) {
      snap.SetGauge("monitor.parallel.shard." + engine_names_[g->slot] +
                        ".replica." + std::to_string(r) + ".live_instances",
                    static_cast<std::int64_t>(g->replicas[r]->live_instances()));
    }
  }
}

void ParallelMonitorSet::Start() {
  SWMON_ASSERT_MSG(!started_ && !stopped_, "Start() twice");
  const std::size_t n_workers = std::max<std::size_t>(1, config_.workers);
  workers_.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w)
    workers_.push_back(std::make_unique<Worker>(config_.ring_capacity));
  // Instance-shard what the mode and the plan analysis allow; everything
  // else property-shards below.
  if (WantInstanceShard(attached_count())) {
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      if (!engines_[i]) continue;
      if (auto plan = BuildShardPlan(engines_[i]->property(), configs_[i]))
        MakeSharded(i, std::move(*plan));
    }
  }
  // Slots detached before Start (or instance-sharded) weigh nothing and are
  // not registered on any one worker.
  std::vector<double> effective = weights_;
  for (std::size_t i = 0; i < engines_.size(); ++i)
    if (!engines_[i] || group_of_slot_[i] != nullptr) effective[i] = 0.0;
  shard_of_ = GreedyAssignShards(effective, n_workers);
  worker_load_.assign(n_workers, 0.0);
  // Register in attach order so each shard's dispatch order (and thus its
  // engines' event interleaving) matches the serial set's.
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (!engines_[i] || group_of_slot_[i] != nullptr) continue;
    Worker& w = *workers_[shard_of_[i]];
    w.table.Register(engines_[i].get(), static_cast<std::uint32_t>(i));
    w.engine_indices.push_back(i);
    worker_load_[shard_of_[i]] += weights_[i];
  }
  RebuildPool();
  started_ = true;
  for (std::size_t w = 0; w < n_workers; ++w) {
    workers_[w]->thread =
        std::thread([this, w] { WorkerLoop(*workers_[w], w); });
  }
}

void ParallelMonitorSet::WorkerLoop(Worker& worker, std::size_t worker_index) {
  if (config_.pin_threads) PinCurrentThreadToCpu(worker_index);
  constexpr std::size_t kRun = 8;
  SlabBatch<DataplaneEvent>* run[kRun];
  for (;;) {
    std::size_t n = worker.ring.TryPopRun(run, kRun);
    if (n == 0) {
      SlabBatch<DataplaneEvent>* b = nullptr;
      if (!worker.ring.PopBlocking(b)) return;
      run[0] = b;
      n = 1;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ProcessBatch(worker, worker_index, *run[i]);
      pool_->Release(run[i]);  // before the consumed add: quiesce implies
                               // every batch is back on the freelist
    }
    worker.batches_consumed.value.fetch_add(n, std::memory_order_release);
  }
}

void ParallelMonitorSet::ProcessBatch(Worker& worker,
                                      std::size_t worker_index,
                                      const SlabBatch<DataplaneEvent>& batch) {
  const std::size_t n = batch.size;
  if (n == 0) return;
  // Batch execution: each engine resident on this worker consumes the
  // whole run through its batch entry point. Engines are independent state
  // machines, so swapping the scalar loop's event/engine nesting is
  // invisible to each engine's event stream; the per-event observability
  // the scalar loop read inline (violation highwater marks, creation
  // counts, live counts) comes back through the BatchEventResult array and
  // is folded into the same markers and logs the scalar loop produced —
  // bit-identical merges.
  if (worker.results.size() < n) worker.results.resize(n);
  if (worker.ops.size() < n) worker.ops.resize(n);

  // Local accumulators; synced into the worker's counters once per batch so
  // the batched path's totals match serial per-event counting exactly.
  std::uint64_t dispatched = 0;
  std::uint64_t filtered = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const DispatchTable::Lists& lists = worker.table.lists(batch.items[i].type);
    dispatched += lists.interested.size();
    filtered += lists.filtered.size();
  }

  // Property-sharded residents, in attach (= serial dispatch) order. The
  // engine's own interest test routes each event to ProcessDispatchedEvent
  // or NoteFilteredEvent — the same split the dispatch lists encode.
  for (const std::size_t idx : worker.engine_indices) {
    PropertyMonitor* eng = engines_[idx].get();
    const EventTypeMask sig = eng->interest_signature();
    std::uint32_t prev = static_cast<std::uint32_t>(eng->violations().size());
    eng->ProcessEventBatch(batch.items.data(), n, worker.results.data());
    const std::uint32_t slot = static_cast<std::uint32_t>(idx);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t after = worker.results[i].violations_after;
      if (after != prev) {
        // Filtered deliveries are violation sources too: the clock advance
        // can fire timeout-action windows (Feature 7) — those merge as
        // phase 0, match-pass violations as phase 1, exactly as the scalar
        // loop recorded them.
        const std::uint8_t phase =
            (sig >> static_cast<std::size_t>(batch.items[i].type)) & 1 ? 1 : 0;
        const std::uint64_t seq = batch.base_seq + i;
        for (std::uint32_t v = prev; v < after; ++v)
          worker.markers.push_back({seq, slot, v, 0, phase});
        prev = after;
      }
    }
  }

  // Instance-sharded groups: derive this worker's per-event op (stage mask
  // from the route lanes it owns, count/filtered attribution) up front,
  // then hand the run to the replica in one call.
  const std::uint64_t n_workers = workers_.size();
  const std::size_t stride = route_stride_;
  for (ShardedGroup* g : active_groups_) {
    PropertyMonitor* rep = g->replicas[worker_index];
    ShardedGroup::ReplicaLog& log = g->logs[worker_index];
    const std::uint32_t slot = static_cast<std::uint32_t>(g->slot);
    const std::uint16_t rep_idx = static_cast<std::uint16_t>(worker_index);
    for (std::uint32_t i = 0; i < n; ++i) {
      const DataplaneEvent& ev = batch.items[i];
      const auto& lanes =
          g->plan.lanes_by_type[static_cast<std::size_t>(ev.type)];
      ShardedBatchOp& op = worker.ops[i];
      if (lanes.empty()) {
        // Outside the property's interest signature: clock only, with the
        // filtered-event count attributed once (worker 0).
        op = ShardedBatchOp{0, false, worker_index == 0};
        if (worker_index == 0) ++filtered;
        continue;
      }
      const std::uint64_t* routes =
          batch.routes.data() + std::size_t{i} * stride;
      std::uint64_t mask = 0;
      bool count = false;
      for (std::size_t j = 0; j < lanes.size(); ++j) {
        if (routes[g->lane_base + j] % n_workers != worker_index) continue;
        const ShardExtraction& ex = g->plan.extractions[lanes[j]];
        mask |= ex.stage_bits;
        count = count || ex.counts;
      }
      op = ShardedBatchOp{mask, count, false};
      if (mask != 0 && count) ++dispatched;
    }
    std::uint32_t prev = static_cast<std::uint32_t>(rep->violations().size());
    rep->ProcessShardedBatch(batch.items.data(), n, worker.ops.data(),
                             worker.results.data());
    for (std::uint32_t i = 0; i < n; ++i) {
      const BatchEventResult& r = worker.results[i];
      const std::uint64_t seq = batch.base_seq + i;
      // Phase 0: fired by the clock advance (timer expiries order by
      // deadline across replicas); phase 1: by the owned passes.
      for (std::uint32_t v = prev; v < r.violations_clock; ++v)
        worker.markers.push_back({seq, slot, v, rep_idx, 0});
      for (std::uint32_t v = r.violations_clock; v < r.violations_after; ++v)
        worker.markers.push_back({seq, slot, v, rep_idx, 1});
      prev = r.violations_after;
      // Creation / live-count logs feed the quiesce-point merge that
      // renumbers instance ids and reconstructs the exact peak_live.
      for (std::uint64_t c = log.prev_created; c < r.created_after; ++c)
        log.creation_seqs.push_back(seq);
      log.prev_created = r.created_after;
      if (r.live_after != log.prev_live) {
        log.live_log.emplace_back(seq, r.live_after);
        log.prev_live = r.live_after;
      }
    }
  }
  worker.dispatched += dispatched;
  worker.filtered += filtered;
}

void ParallelMonitorSet::OnDataplaneEvent(const DataplaneEvent& event) {
  SWMON_ASSERT_MSG(started_ && !stopped_,
                   "ParallelMonitorSet needs Start() before events");
  if (cur_ == nullptr) {
    cur_ = pool_->AcquireBlocking();
    cur_->base_seq = next_seq_;
  }
  const std::uint32_t i = cur_->size;
  cur_->items[i] = event;
  if (route_stride_ != 0) {
    std::uint64_t* routes =
        cur_->routes.data() + std::size_t{i} * route_stride_;
    for (const ShardedGroup* g : active_groups_) {
      const auto& lanes =
          g->plan.lanes_by_type[static_cast<std::size_t>(event.type)];
      for (std::size_t j = 0; j < lanes.size(); ++j) {
        routes[g->lane_base + j] =
            ShardHash(event.fields, g->plan.extractions[lanes[j]].fields);
      }
    }
  }
  ++cur_->size;
  ++next_seq_;
  if (cur_->size == pool_->batch_capacity()) PublishCurrent();
}

void ParallelMonitorSet::PublishCurrent() {
  SlabBatch<DataplaneEvent>* b = cur_;
  cur_ = nullptr;
  b->refs.store(static_cast<std::uint32_t>(workers_.size()),
                std::memory_order_relaxed);
  for (auto& w : workers_) {
    w->ring.PushBlocking(b);
    const std::size_t occupancy = w->ring.SizeApprox();
    if (occupancy > w->ring_high_water) w->ring_high_water = occupancy;
  }
  ++batches_published_;
}

void ParallelMonitorSet::MergeGroupLogs(ShardedGroup& g) {
  // Creations, ordered by event sequence: exactly one replica creates per
  // event (the stage-0 owner), so seqs are unique and the sorted order IS
  // the serial creation order — each gets the next serial instance id.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> created;
  for (std::uint32_t r = 0; r < g.logs.size(); ++r)
    for (const std::uint64_t seq : g.logs[r].creation_seqs)
      created.emplace_back(seq, r);
  if (!created.empty()) {
    std::sort(created.begin(), created.end());
    for (const auto& [seq, r] : created)
      g.serial_ids[r].push_back(g.next_serial_id++);
    for (auto& log : g.logs) log.creation_seqs.clear();
  }
  // Live counts: apply every replica's update for an event seq, THEN sample
  // the summed total — the same end-of-event sample points the serial
  // engine's peak_live uses. (tie = per-replica insertion index, so
  // repeated producer-side advances at one seq apply in order.)
  struct Ent {
    std::uint64_t seq;
    std::uint32_t replica;
    std::uint32_t tie;
    std::size_t live;
  };
  std::vector<Ent> ents;
  for (std::uint32_t r = 0; r < g.logs.size(); ++r) {
    const auto& log = g.logs[r].live_log;
    for (std::uint32_t k = 0; k < log.size(); ++k)
      ents.push_back(Ent{log[k].first, r, k, log[k].second});
  }
  if (ents.empty()) return;
  std::sort(ents.begin(), ents.end(), [](const Ent& a, const Ent& b) {
    if (a.seq != b.seq) return a.seq < b.seq;
    if (a.replica != b.replica) return a.replica < b.replica;
    return a.tie < b.tie;
  });
  for (std::size_t k = 0; k < ents.size(); ++k) {
    const Ent& e = ents[k];
    g.merged_total +=
        static_cast<std::int64_t>(e.live) - g.merged_live[e.replica];
    g.merged_live[e.replica] = static_cast<std::int64_t>(e.live);
    if (k + 1 == ents.size() || ents[k + 1].seq != e.seq)
      g.merged_peak = std::max(g.merged_peak, g.merged_total);
  }
  for (auto& log : g.logs) log.live_log.clear();
}

void ParallelMonitorSet::Quiesce() {
  if (!started_) return;
  if (cur_ != nullptr) PublishCurrent();
  for (auto& w : workers_) {
    while (w->batches_consumed.value.load(std::memory_order_acquire) <
           batches_published_) {
      std::this_thread::yield();
    }
  }
  for (ShardedGroup* g : active_groups_) MergeGroupLogs(*g);
}

void ParallelMonitorSet::Flush() { Quiesce(); }

void ParallelMonitorSet::AdvanceTime(SimTime now) {
  Quiesce();
  // Post-quiesce the producer owns all engine state (workers are parked on
  // empty rings); advancing serially in attach order matches MonitorSet.
  const std::uint64_t seq = next_seq_;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (!engines_[i]) continue;
    ShardedGroup* g = group_of_slot_[i];
    if (g == nullptr || g->detached) {
      PropertyMonitor& e = *engines_[i];
      const std::size_t before = e.violations().size();
      e.AdvanceTime(now);
      for (std::size_t v = before; v < e.violations().size(); ++v) {
        advance_markers_.push_back({seq, static_cast<std::uint32_t>(i),
                                    static_cast<std::uint32_t>(v), 0, 0});
      }
      continue;
    }
    // Every replica's clock advances; expiry violations merge across
    // replicas by (deadline, serial instance id) — the timer heap's order.
    for (std::uint32_t r = 0; r < g->replicas.size(); ++r) {
      PropertyMonitor& e = *g->replicas[r];
      const std::size_t before = e.violations().size();
      e.AdvanceTime(now);
      for (std::size_t v = before; v < e.violations().size(); ++v) {
        advance_markers_.push_back({seq, static_cast<std::uint32_t>(i),
                                    static_cast<std::uint32_t>(v),
                                    static_cast<std::uint16_t>(r), 0});
      }
      ShardedGroup::ReplicaLog& log = g->logs[r];
      const std::size_t live = e.live_instances();
      if (live != log.prev_live) {
        log.live_log.emplace_back(seq, live);
        log.prev_live = live;
      }
    }
  }
}

void ParallelMonitorSet::Stop() {
  if (!started_ || stopped_) return;
  Quiesce();
  for (auto& w : workers_) w->ring.Close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  stopped_ = true;
}

std::vector<Violation> ParallelMonitorSet::AllViolations() {
  Quiesce();
  std::vector<Violation> out;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (!engines_[i]) continue;
    const ShardedGroup* g = group_of_slot_[i];
    if (g != nullptr && !g->detached) {
      std::vector<Violation> merged = MaterializeSlot(i);
      out.insert(out.end(), std::make_move_iterator(merged.begin()),
                 std::make_move_iterator(merged.end()));
    } else {
      const auto& v = engines_[i]->violations();
      out.insert(out.end(), v.begin(), v.end());
    }
  }
  return out;
}

std::uint64_t ParallelMonitorSet::SerialInstanceId(const ShardedGroup& g,
                                                   std::uint32_t replica,
                                                   std::uint64_t local_id) const {
  SWMON_ASSERT(local_id >= 1 && local_id <= g.serial_ids[replica].size());
  return g.serial_ids[replica][local_id - 1];
}

const Violation& ParallelMonitorSet::Resolve(const ViolationMarker& m) const {
  const ShardedGroup* g = group_of_slot_[m.engine_index];
  if (g != nullptr && !g->detached)
    return g->replicas[m.replica]->violations()[m.violation_index];
  if (g == nullptr && engines_[m.engine_index])
    return engines_[m.engine_index]->violations()[m.violation_index];
  return retired_[m.engine_index][m.replica][m.violation_index];
}

Violation ParallelMonitorSet::Materialize(const ViolationMarker& m) const {
  Violation v = Resolve(m);
  const ShardedGroup* g = group_of_slot_[m.engine_index];
  if (g != nullptr) v.instance_id = SerialInstanceId(*g, m.replica, v.instance_id);
  return v;
}

bool ParallelMonitorSet::MarkerLess(const ViolationMarker& a,
                                    const ViolationMarker& b) const {
  // Stream order with the serial tiebreak: the event that fired it, then
  // engine attach order (serial dispatch order within one event).
  if (a.seq != b.seq) return a.seq < b.seq;
  if (a.engine_index != b.engine_index) return a.engine_index < b.engine_index;
  const ShardedGroup* g = group_of_slot_[a.engine_index];
  if (g == nullptr) {
    // One emitter: the engine's own emission order.
    return a.violation_index < b.violation_index;
  }
  // Instance-sharded: reconstruct the serial engine's within-event order.
  // Phase 0 (clock advance) precedes the match passes; expiries fire in
  // timer-heap order (deadline, then the instance-id ordinal both engines
  // arm with — renumbered to the serial id so replicas compare equal).
  if (a.phase != b.phase) return a.phase < b.phase;
  const Violation& va = Resolve(a);
  const Violation& vb = Resolve(b);
  if (a.phase == 0) {
    if (va.time != vb.time) return va.time < vb.time;
    return SerialInstanceId(*g, a.replica, va.instance_id) <
           SerialInstanceId(*g, b.replica, vb.instance_id);
  }
  // Match passes complete stages highest-first (the serial advance-pass
  // loop); one replica owns any given stage for one event, so within a
  // stage the replica's emission order is the serial order.
  if (va.trigger_stage_index != vb.trigger_stage_index)
    return va.trigger_stage_index > vb.trigger_stage_index;
  if (a.replica != b.replica) return a.replica < b.replica;
  return a.violation_index < b.violation_index;
}

std::vector<Violation> ParallelMonitorSet::MergeFromMarkers(
    const std::vector<ViolationMarker>& markers) const {
  std::vector<Violation> out;
  out.reserve(markers.size());
  for (const ViolationMarker& m : markers) out.push_back(Materialize(m));
  return out;
}

std::vector<ParallelMonitorSet::ViolationMarker>
ParallelMonitorSet::GatherSortedMarkers() const {
  std::vector<ViolationMarker> markers;
  for (const auto& w : workers_)
    markers.insert(markers.end(), w->markers.begin(), w->markers.end());
  markers.insert(markers.end(), advance_markers_.begin(),
                 advance_markers_.end());
  std::sort(markers.begin(), markers.end(),
            [this](const ViolationMarker& a, const ViolationMarker& b) {
              return MarkerLess(a, b);
            });
  return markers;
}

std::vector<Violation> ParallelMonitorSet::MaterializeSlot(
    PropertyId id) const {
  std::vector<ViolationMarker> markers;
  for (const auto& w : workers_)
    for (const ViolationMarker& m : w->markers)
      if (m.engine_index == id) markers.push_back(m);
  for (const ViolationMarker& m : advance_markers_)
    if (m.engine_index == id) markers.push_back(m);
  std::sort(markers.begin(), markers.end(),
            [this](const ViolationMarker& a, const ViolationMarker& b) {
              return MarkerLess(a, b);
            });
  return MergeFromMarkers(markers);
}

std::vector<Violation> ParallelMonitorSet::MergedViolations() {
  Quiesce();
  return MergeFromMarkers(GatherSortedMarkers());
}

std::size_t ParallelMonitorSet::TotalViolations() {
  Quiesce();
  std::size_t n = 0;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (!engines_[i]) continue;
    const ShardedGroup* g = group_of_slot_[i];
    if (g != nullptr && !g->detached) {
      for (const PropertyMonitor* rep : g->replicas)
        n += rep->violations().size();
    } else {
      n += engines_[i]->violations().size();
    }
  }
  return n;
}

}  // namespace swmon
