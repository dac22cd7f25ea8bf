#include "monitor/engine.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "monitor/features.hpp"

namespace swmon {

MonitorEngine::MonitorEngine(Property property, MonitorConfig config,
                             InterpreterAblation ablation)
    : property_(std::move(property)),
      config_(config),
      ablation_(ablation),
      timers_([this](std::uint64_t id, SimTime deadline) {
        OnTimerExpiry(id, deadline);
      }) {
  const std::string err = property_.Validate();
  SWMON_ASSERT_MSG(err.empty(), err.c_str());

  ecfg_ = config_.eviction;
  eviction_.Configure(ecfg_, property_.num_vars());
  evict_enabled_ = eviction_.enabled();

  interest_ = InterestSignature(property_);
  stores_.resize(property_.num_stages());
  const bool indexed = !ablation_.force_linear_store;
  for (std::size_t k = 1; k < property_.num_stages(); ++k) {
    const Stage& st = property_.stages[k];
    StageStore& store = stores_[k];
    // Only full-width equality on a bound var is usable as a hash key (see
    // KeyTerms for why allow_absent conditions are excluded).
    if (st.kind == StageKind::kEvent) {
      store.need = RequiredPresence(st.pattern);
      if (indexed) store.link = KeyTerms(st.pattern);
    }
    store.abort_plan = PlanAborts(st, store.link, indexed);
    store.extra.resize(store.abort_plan.extra.size());
  }
  for (const Binding& b : property_.stages[0].bindings)
    stage0_bound_vars_.push_back(b.var);
}

// ---------------------------------------------------------------- matching

bool MonitorEngine::EvalCondition(
    const Condition& c, const FieldMap& fields,
    const std::vector<std::optional<std::uint64_t>>& env) const {
  const auto lhs = fields.Get(c.field);
  if (!lhs) return c.allow_absent;
  std::uint64_t rhs;
  if (c.rhs.kind == Term::Kind::kConst) {
    rhs = c.rhs.constant;
  } else {
    const auto& bound = env[c.rhs.var];
    if (!bound) return false;  // conditions on unbound vars never hold
    rhs = *bound;
  }
  const bool eq = (*lhs & c.mask) == (rhs & c.mask);
  return c.op == CmpOp::kEq ? eq : !eq;
}

bool MonitorEngine::MatchPattern(
    const Pattern& p, const DataplaneEvent& ev,
    const std::vector<std::optional<std::uint64_t>>& env) const {
  if (p.event_type && *p.event_type != ev.type) return false;
  for (const Condition& c : p.conditions)
    if (!EvalCondition(c, ev.fields, env)) return false;
  if (!p.forbidden.empty()) {
    bool all_hold = true;
    for (const Condition& c : p.forbidden) {
      if (!EvalCondition(c, ev.fields, env)) {
        all_hold = false;
        break;
      }
    }
    if (all_hold) return false;  // the forbidden tuple matched exactly
  }
  return true;
}

bool MonitorEngine::ApplyBindings(
    const Stage& stage, const DataplaneEvent& ev,
    std::vector<std::optional<std::uint64_t>>& env) {
  // Validate before mutating: a binding on an absent field means the stage
  // does not match (and the round-robin counter must not advance).
  for (const Binding& b : stage.bindings) {
    if (b.kind == Binding::Kind::kField && !ev.fields.Has(b.field))
      return false;
    if (b.kind == Binding::Kind::kHashPort) {
      for (FieldId f : b.hash_inputs)
        if (!ev.fields.Has(f)) return false;
    }
  }
  if (stage.window_from_field && !ev.fields.Has(*stage.window_from_field))
    return false;

  for (const Binding& b : stage.bindings) {
    switch (b.kind) {
      case Binding::Kind::kField:
        env[b.var] = ev.fields.GetUnchecked(b.field);
        break;
      case Binding::Kind::kHashPort:
        env[b.var] =
            HashFieldsToRange(ev.fields, b.hash_inputs, b.modulus, b.base);
        break;
      case Binding::Kind::kRoundRobin:
        env[b.var] = rr_counter_++ % b.modulus + b.base;
        break;
    }
  }
  return true;
}

// ------------------------------------------------------------------ stores

namespace {

VarId VarOf(VarId v) { return v; }
VarId VarOf(const KeyTerm& t) { return t.var; }

/// Projects `env` onto the vars of `terms` into `key`; false when one of
/// them is unbound (the instance cannot be filed under that index).
template <typename Terms>
bool EnvKey(const Terms& terms,
            const std::vector<std::optional<std::uint64_t>>& env,
            FlowKey& key) {
  key.values.clear();
  key.values.reserve(terms.size());
  for (const auto& t : terms) {
    const auto& v = env[VarOf(t)];
    if (!v) return false;
    key.values.push_back(*v);
  }
  return true;
}

void EraseId(std::vector<std::uint64_t>& v, std::uint64_t id) {
  auto it = std::find(v.begin(), v.end(), id);
  if (it == v.end()) return;
  *it = v.back();
  v.pop_back();
}

template <typename Map>
void EraseKeyed(Map& map, const FlowKey& key, std::uint64_t id) {
  auto it = map.find(key);
  if (it == map.end()) return;
  EraseId(it->second, id);
  if (it->second.empty()) map.erase(it);
}

}  // namespace

void MonitorEngine::InsertIntoStore(Instance& inst) {
  SWMON_ASSERT(inst.stage >= 1 && inst.stage < property_.num_stages());
  StageStore& store = stores_[inst.stage];
  FlowKey key;
  for (std::size_t i = 0; i < store.extra.size(); ++i)
    if (EnvKey(store.abort_plan.extra[i], inst.env, key))
      store.extra[i][key].push_back(inst.id);
  if (!store.link.empty() && EnvKey(store.link, inst.env, key)) {
    store.keyed[key].push_back(inst.id);
    return;
  }
  inst.scan_pos = store.scan.size();
  store.scan.push_back(inst.id);
}

void MonitorEngine::RemoveFromStore(const Instance& inst) {
  if (inst.stage < 1 || inst.stage >= property_.num_stages()) return;
  StageStore& store = stores_[inst.stage];
  FlowKey key;
  for (std::size_t i = 0; i < store.extra.size(); ++i)
    if (EnvKey(store.abort_plan.extra[i], inst.env, key))
      EraseKeyed(store.extra[i], key, inst.id);
  if (!store.link.empty() && EnvKey(store.link, inst.env, key)) {
    EraseKeyed(store.keyed, key, inst.id);
    return;
  }
  // Swap-remove through the back-pointer: the same resulting order as a
  // find-and-swap, in O(1) — timeout stages file every instance here.
  const std::uint64_t last = store.scan.back();
  SWMON_ASSERT(store.scan[inst.scan_pos] == inst.id);
  store.scan[inst.scan_pos] = last;
  instances_.find(last)->second.scan_pos = inst.scan_pos;
  store.scan.pop_back();
}

std::optional<FlowKey> MonitorEngine::Stage0Key(
    const std::vector<std::optional<std::uint64_t>>& env) const {
  FlowKey key;
  key.values.reserve(stage0_bound_vars_.size());
  for (VarId v : stage0_bound_vars_) {
    if (!env[v]) return std::nullopt;
    key.values.push_back(*env[v]);
  }
  return key;
}

// -------------------------------------------------------------- lifecycle

void MonitorEngine::ArmWindow(Instance& inst, const Stage& completed,
                              const DataplaneEvent* ev) {
  Duration window = completed.window;
  if (completed.window_from_field && ev != nullptr) {
    // Presence was verified in ApplyBindings.
    window = Duration::Seconds(static_cast<std::int64_t>(
        ev->fields.GetUnchecked(*completed.window_from_field)));
  }
  if (window > Duration::Zero()) {
    inst.deadline = now_ + window;
    // Ordinal = instance id: deadline ties fire in id order, a pure function
    // of monitor state that per-replica timer heaps reproduce independently
    // (the instance-sharded merge depends on it; see timer_set.hpp).
    timers_.Arm(inst.id, inst.deadline, inst.id);
    if (evict_enabled_)
      eviction_.OnDeadline(inst.id,
                           static_cast<std::uint64_t>(inst.deadline.nanos()));
  } else {
    inst.deadline = SimTime::Infinity();
    timers_.Cancel(inst.id);
    if (evict_enabled_)
      eviction_.OnDeadline(inst.id, EvictionState::kNoDeadline);
  }
}

void MonitorEngine::ReportViolation(const Instance& inst, SimTime when,
                                    const std::string& trigger,
                                    std::uint32_t trigger_stage_index) {
  Violation v;
  v.property = property_.name;
  v.time = when;
  v.instance_id = inst.id;
  v.trigger_stage = trigger;
  v.trigger_stage_index = trigger_stage_index;
  if (config_.provenance >= ProvenanceLevel::kLimited) {
    for (std::size_t i = 0; i < property_.vars.size(); ++i) {
      if (inst.env[i]) v.bindings.emplace_back(property_.vars[i], *inst.env[i]);
    }
  }
  if (config_.provenance == ProvenanceLevel::kFull) v.history = inst.history;
  SWMON_LOG_INFO("monitor", "%s", v.ToString().c_str());
  violations_.push_back(std::move(v));
  ++stats_.violations;
}

void MonitorEngine::DestroyInstance(std::uint64_t id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  RemoveFromStore(inst);
  if (const auto key = Stage0Key(inst.env)) {
    auto bucket = stage0_index_.find(*key);
    if (bucket != stage0_index_.end()) {
      std::erase(bucket->second, id);
      if (bucket->second.empty()) stage0_index_.erase(bucket);
    }
  }
  timers_.Cancel(id);
  instances_.erase(it);
  if (evict_enabled_) eviction_.OnDestroy(id);
}

void MonitorEngine::AdvanceInstance(Instance& inst, const DataplaneEvent* ev) {
  // Caller verified the match, committed env updates, and UNFILED the
  // instance from its stage store (removal must use the pre-update env —
  // the keyed store can only locate an instance under the key it was
  // inserted with); this commits the stage transition.
  if (config_.provenance == ProvenanceLevel::kFull) {
    ProvenanceEvent pe;
    pe.time = now_;
    pe.stage = inst.stage;
    if (ev != nullptr) pe.fields = ev->fields;
    inst.history.push_back(std::move(pe));
  }
  const Stage& completed = property_.stages[inst.stage];
  const auto completed_index = inst.stage;
  ++inst.stage;
  inst.stage_matches = 0;
  if (inst.stage == property_.num_stages()) {
    ReportViolation(inst, now_, completed.label, completed_index);
    DestroyInstance(inst.id);
    return;
  }
  ArmWindow(inst, completed, ev);
  InsertIntoStore(inst);
}

void MonitorEngine::OnTimerExpiry(std::uint64_t id, SimTime deadline) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  now_ = std::max(now_, deadline);
  if (inst.stage < property_.num_stages() &&
      property_.stages[inst.stage].kind == StageKind::kTimeout) {
    // Feature 7: the elapsed window IS the observation.
    ++stats_.timeout_observations;
    ++stats_.instances_advanced;
    RemoveFromStore(inst);  // env is unchanged, so the filed key is current
    AdvanceInstance(inst, nullptr);
  } else {
    // Feature 3: the window lapsed before the next observation; the
    // candidate violation evaporates.
    ++stats_.instances_expired;
    DestroyInstance(id);
  }
}

void MonitorEngine::EvictIfNeeded() {
  if (!evict_enabled_) return;
  while (instances_.size() > eviction_.cap()) {
    const EvictionState::Victim victim = eviction_.PickVictim();
    DestroyInstance(victim.id);
    ++stats_.instances_evicted;
    if (eviction_.bytes_bound())
      ++evictions_bytes_;
    else
      ++evictions_capacity_;
  }
}

// ------------------------------------------------------------- event path

void MonitorEngine::AdvanceTime(SimTime now) {
  // Stale timestamps (e.g. an AdvanceTime(horizon) after late scheduled
  // events already pushed the clock further) are a no-op: time is monotone.
  if (now <= now_) return;
  timers_.Advance(now);
  now_ = now;
}

void MonitorEngine::ProcessEvent(const DataplaneEvent& event) {
  ++event_seq_;
  ++stats_.events;
  AdvanceTime(event.time);
  RunAbortPass(event, ~std::uint64_t{0});
  RunAdvancePass(event, ~std::uint64_t{0});
  if (ablation_.naive_timeout_refresh) RunNaiveRefreshPass(event);
  RunCreatePass(event);
  RunSuppressorPass(event);
  stats_.peak_live = std::max(stats_.peak_live, instances_.size());
}

void MonitorEngine::ProcessShardedEvent(const DataplaneEvent& event,
                                        std::uint64_t stage_mask, bool count) {
  // Same pass sequence as ProcessEvent, restricted to the stages this
  // replica owns for this event. Exactly one replica per event runs with
  // `count` set, so summing replica counters reproduces the serial ones.
  // The driver already advanced time (timer phase); the AdvanceTime here is
  // a monotonicity no-op kept for direct callers.
  ++event_seq_;
  if (count) {
    ++stats_.events;
    ++stats_.events_dispatched;
  }
  AdvanceTime(event.time);
  RunAbortPass(event, stage_mask);
  RunAdvancePass(event, stage_mask);
  if (ablation_.naive_timeout_refresh) RunNaiveRefreshPass(event);
  if (stage_mask & 1) {
    RunCreatePass(event);
    RunSuppressorPass(event);
  }
  stats_.peak_live = std::max(stats_.peak_live, instances_.size());
}

void MonitorEngine::RunNaiveRefreshPass(const DataplaneEvent& ev) {
  // Unsound-by-design ablation (InterpreterAblation::naive_timeout_refresh):
  // an event re-matching the observation BEFORE a pending timeout stage
  // resets that stage's timer, postponing the negative observation.
  for (std::size_t k = 1; k < property_.num_stages(); ++k) {
    if (property_.stages[k].kind != StageKind::kTimeout) continue;
    const Stage& prev = property_.stages[k - 1];
    if (prev.kind != StageKind::kEvent) continue;
    if (prev.pattern.event_type && *prev.pattern.event_type != ev.type)
      continue;
    StageStore& store = stores_[k];
    if (prev.window_from_field && !ev.fields.Has(*prev.window_from_field))
      continue;
    auto consider = [&](std::uint64_t id) {
      auto it = instances_.find(id);
      if (it == instances_.end() || it->second.stage != k) return;
      if (MatchPattern(prev.pattern, ev, it->second.env)) {
        ArmWindow(it->second, prev, &ev);
        ++stats_.instances_refreshed;
      }
    };
    for (const auto& [key, bucket] : store.keyed)
      for (auto id : bucket) consider(id);
    for (auto id : store.scan) consider(id);
  }
}

void MonitorEngine::RunAbortPass(const DataplaneEvent& ev,
                                 std::uint64_t stage_mask) {
  static const std::vector<std::optional<std::uint64_t>> kNoEnv;
  const std::uint64_t present = ev.fields.presence_mask();
  for (std::size_t k = 1; k < property_.num_stages(); ++k) {
    if (!(stage_mask >> k & 1)) continue;
    const Stage& st = property_.stages[k];
    if (st.aborts.empty()) continue;
    const StageStore& store = stores_[k];

    // Prefilter (DESIGN.md 5m): type, required presence and the constant
    // conditions decide each abort for every instance at once.
    std::vector<std::size_t> live;
    bool walk = false;
    for (std::size_t j = 0; j < st.aborts.size(); ++j) {
      const Pattern& a = st.aborts[j];
      const AbortPlan& plan = store.abort_plan.aborts[j];
      if (a.event_type && *a.event_type != ev.type) continue;
      if ((present & plan.need) != plan.need) continue;
      bool consts_hold = true;
      for (const Condition& c : plan.consts) {
        if (!EvalCondition(c, ev.fields, kNoEnv)) {
          consts_hold = false;
          break;
        }
      }
      if (!consts_hold) continue;
      live.push_back(j);
      if (plan.index == kAbortWalk) walk = true;
    }
    if (live.empty()) continue;

    // Candidates: the union of the surviving aborts' candidate sets, each
    // instance counted once — the stage-wide walk when any survivor has no
    // keyable term, otherwise one keyed probe per survivor.
    std::vector<std::uint64_t> cand;
    if (walk) {
      for (const auto& [key, bucket] : store.keyed)
        cand.insert(cand.end(), bucket.begin(), bucket.end());
      cand.insert(cand.end(), store.scan.begin(), store.scan.end());
    } else {
      FlowKey key;
      for (const std::size_t j : live) {
        const AbortPlan& plan = store.abort_plan.aborts[j];
        key.values.clear();
        for (const FieldId f : plan.probe)
          key.values.push_back(ev.fields.GetUnchecked(f));  // in plan.need
        const KeyedIds& index =
            plan.index == kLinkIndex
                ? store.keyed
                : store.extra[plan.index - kFirstExtraIndex];
        const auto it = index.find(key);
        if (it != index.end())
          cand.insert(cand.end(), it->second.begin(), it->second.end());
      }
      if (live.size() > 1) {
        std::sort(cand.begin(), cand.end());
        cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
      }
    }

    std::vector<std::uint64_t> victims;
    for (const std::uint64_t id : cand) {
      const auto it = instances_.find(id);
      if (it == instances_.end() || it->second.stage != k) continue;
      ++stats_.candidate_checks;
      for (const std::size_t j : live) {
        if (MatchPattern(st.aborts[j], ev, it->second.env)) {
          victims.push_back(id);
          break;
        }
      }
    }

    // The candidates were gathered in unordered_map bucket order; sort so
    // destruction order is deterministic and engine-independent (part of
    // the compiled-vs-interpreted bit-identity contract).
    std::sort(victims.begin(), victims.end());
    for (auto id : victims) {
      DestroyInstance(id);
      ++stats_.instances_aborted;
    }
  }
}

void MonitorEngine::RunAdvancePass(const DataplaneEvent& ev,
                                   std::uint64_t stage_mask) {
  // Highest stage first so an instance advanced into stage k+1 is not
  // examined again there by the same event.
  for (std::size_t k = property_.num_stages(); k-- > 1;) {
    if (!(stage_mask >> k & 1)) continue;
    const Stage& st = property_.stages[k];
    if (st.kind != StageKind::kEvent) continue;
    if (st.pattern.event_type && *st.pattern.event_type != ev.type) continue;
    StageStore& store = stores_[k];
    // An event missing a required field matches no instance: skip the
    // stage before the probe (and before counting candidates).
    if ((ev.fields.presence_mask() & store.need) != store.need) continue;

    std::vector<std::uint64_t> candidates;
    if (!store.link.empty()) {
      FlowKey key;
      bool projectable = true;
      for (const KeyTerm& t : store.link) {
        const auto v = ev.fields.Get(t.field);
        if (!v) {
          projectable = false;
          break;
        }
        key.values.push_back(*v);
      }
      if (projectable) {
        const auto it = store.keyed.find(key);
        if (it != store.keyed.end()) candidates = it->second;
      }
      candidates.insert(candidates.end(), store.scan.begin(),
                        store.scan.end());
    } else {
      // Multiple match (Feature 8): every instance at this stage is a
      // candidate — e.g. a link-down event advances all learned addresses.
      candidates.reserve(store.keyed.size() + store.scan.size());
      for (const auto& [key, bucket] : store.keyed)
        candidates.insert(candidates.end(), bucket.begin(), bucket.end());
      candidates.insert(candidates.end(), store.scan.begin(),
                        store.scan.end());
    }

    for (const std::uint64_t id : candidates) {
      auto it = instances_.find(id);
      if (it == instances_.end()) continue;
      Instance& inst = it->second;
      if (inst.stage != k || inst.last_event_seq == event_seq_) continue;
      ++stats_.candidate_checks;
      if (!MatchPattern(st.pattern, ev, inst.env)) continue;
      auto new_env = inst.env;
      if (!ApplyBindings(st, ev, new_env)) continue;
      inst.last_event_seq = event_seq_;
      // LRU recency: stamped with the event seq (idempotent per event), the
      // finest clock both engines provably agree on — see eviction.hpp.
      if (evict_enabled_) eviction_.OnTouch(id, event_seq_);
      // A stage with bindings may rebind one of its own link variables, so
      // the instance must be unfiled under the OLD env before the commit;
      // removing afterwards computes a key the store never saw, leaving a
      // stale entry the matching events can no longer reach.
      const bool rebinds = !st.bindings.empty();
      if (rebinds) RemoveFromStore(inst);
      inst.env = std::move(new_env);
      // Quantitative stages (extension): accumulate matches until the
      // stage's threshold before the observation counts as complete.
      if (++inst.stage_matches < st.min_count) {
        if (rebinds) InsertIntoStore(inst);  // re-file under the new key
        continue;
      }
      if (!rebinds) RemoveFromStore(inst);
      ++stats_.instances_advanced;
      AdvanceInstance(inst, &ev);
    }
  }
}

void MonitorEngine::RunCreatePass(const DataplaneEvent& ev) {
  const Stage& st0 = property_.stages[0];
  std::vector<std::optional<std::uint64_t>> env(property_.num_vars());
  if (!MatchPattern(st0.pattern, ev, env)) return;

  // Suppression (negated-history preconditions).
  if (!property_.suppression_key_fields.empty()) {
    if (const auto key =
            ProjectKey(ev.fields, property_.suppression_key_fields);
        key && suppressed_.contains(*key)) {
      ++stats_.suppressed_creations;
      return;
    }
  }

  // ApplyBindings validates every fallible part (field presence) before
  // mutating, so a failed stage never advances rr_counter_. The dedup path
  // below discards a *successful* env, though — snapshot the counter so an
  // event that does not complete stage 0 never consumes a round-robin slot
  // (a duplicate stage-0 match must not desynchronize later assignments).
  const std::uint64_t rr_before = rr_counter_;
  if (!ApplyBindings(st0, ev, env)) return;

  // Dedup / refresh (Feature 3's per-pair timer semantics).
  if (const auto key = Stage0Key(env)) {
    const auto bucket = stage0_index_.find(*key);
    if (bucket != stage0_index_.end() && !bucket->second.empty()) {
      rr_counter_ = rr_before;
      if (st0.refresh_window_on_rematch) {
        for (const std::uint64_t id : bucket->second) {
          auto it = instances_.find(id);
          if (it == instances_.end() || it->second.stage != 1) continue;
          ArmWindow(it->second, st0, &ev);
          ++stats_.instances_refreshed;
          if (evict_enabled_) eviction_.OnTouch(id, event_seq_);
        }
      }
      return;  // an equivalent attempt is already live
    }
  }

  const std::uint64_t id = next_instance_id_++;
  auto [it, inserted] = instances_.emplace(id, Instance{});
  SWMON_ASSERT(inserted);
  Instance& inst = it->second;
  inst.id = id;
  inst.stage = 0;
  inst.created = now_;
  inst.env = std::move(env);
  inst.last_event_seq = event_seq_;
  if (const auto key = Stage0Key(inst.env))
    stage0_index_[*key].push_back(id);
  // Eviction bookkeeping is only maintained under a cap; recording
  // unconditionally would grow the policy queue forever when unbounded.
  if (evict_enabled_) eviction_.OnCreate(id, id, event_seq_);
  ++stats_.instances_created;
  AdvanceInstance(inst, &ev);  // commits stage 0 -> 1 (or violates if n==1)
  EvictIfNeeded();
}

void MonitorEngine::RunSuppressorPass(const DataplaneEvent& ev) {
  for (const Suppressor& sup : property_.suppressors) {
    std::vector<std::optional<std::uint64_t>> env(property_.num_vars());
    if (!MatchPattern(sup.pattern, ev, env)) continue;
    if (const auto key = ProjectKey(ev.fields, sup.key_fields))
      suppressed_.insert(*key);
  }
}

std::size_t MonitorEngine::StateBytes() const {
  std::size_t bytes = suppressed_.size() * sizeof(FlowKey);
  for (const auto& [id, inst] : instances_) {
    bytes += sizeof(Instance);
    bytes += inst.env.capacity() * sizeof(std::optional<std::uint64_t>);
    bytes += inst.history.capacity() * sizeof(ProvenanceEvent);
  }
  return bytes;
}

void MonitorEngine::CollectInto(telemetry::Snapshot& snap,
                                std::string_view name) const {
  const MonitorStats s = StatsNow();
  std::string prefix = "monitor.engine.";
  prefix.append(name);
  prefix += '.';
  const auto set = [&](const char* leaf, std::uint64_t v) {
    snap.SetCounter(prefix + leaf, v);
  };
  set("events", s.events);
  set("events_dispatched", s.events_dispatched);
  set("events_filtered", s.events_filtered);
  set("instances_created", s.instances_created);
  set("instances_refreshed", s.instances_refreshed);
  set("instances_advanced", s.instances_advanced);
  set("instances_expired", s.instances_expired);
  set("instances_aborted", s.instances_aborted);
  set("instances_evicted", s.instances_evicted);
  set("timeout_observations", s.timeout_observations);
  set("suppressed_creations", s.suppressed_creations);
  set("violations", s.violations);
  set("candidate_checks", s.candidate_checks);
  set("timers_armed", s.timers_armed);
  set("timer_stale_pops", s.timer_stale_pops);
  snap.SetGauge(prefix + "peak_live", static_cast<std::int64_t>(s.peak_live));
  snap.SetGauge(prefix + "live_instances",
                static_cast<std::int64_t>(instances_.size()));
  snap.SetGauge(prefix + "eviction_queue",
                static_cast<std::int64_t>(eviction_.QueueSize()));
  snap.SetGauge(prefix + "timers_pending",
                static_cast<std::int64_t>(timers_.armed_count()));
  // Engine-neutral modeled state bytes — the same model the byte cap is
  // enforced against, so the gauge and the cap always agree (and both
  // engines publish identical values; actual resident size is engine-
  // specific and stays on StateBytes()).
  snap.SetGauge(prefix + "state_bytes",
                static_cast<std::int64_t>(
                    instances_.size() * ModelInstanceBytes(property_.num_vars())));
  if (evict_enabled_) {
    // Enabled-only so the disabled default's snapshot name-set (and cost)
    // is unchanged: evictions split by policy and by binding cap.
    snap.SetCounter(prefix + "evictions.policy." +
                        EvictionPolicyName(ecfg_.policy),
                    s.instances_evicted);
    snap.SetCounter(prefix + "evictions.reason.capacity",
                    evictions_capacity_);
    snap.SetCounter(prefix + "evictions.reason.bytes", evictions_bytes_);
  }
}

}  // namespace swmon
