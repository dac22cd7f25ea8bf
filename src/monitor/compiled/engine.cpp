// CompiledEngine: bytecode execution over packed state records.
//
// Every pass is a line-for-line mirror of the corresponding
// MonitorEngine pass (engine.cpp) — same pass order, same candidate
// enumeration, same counter increments, same instance-id assignment —
// with the spec-tree walk replaced by the flat program and the
// per-instance heap objects replaced by slab records. When editing,
// change engine.cpp first and replicate here; the differential tests
// will catch any drift.

#include "monitor/compiled/engine.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace swmon::compiled {

// ---------------------------------------------------------------- OpenMap

std::uint32_t OpenMap::Find(const std::uint64_t* key,
                            std::uint32_t len) const {
  if (cells_.empty()) {
    NoteProbe(0);
    return kNone;
  }
  const std::uint64_t hash = HashKey(key, len);
  const std::size_t mask = cells_.size() - 1;
  std::uint64_t steps = 0;
  for (std::size_t idx = hash & mask;; idx = (idx + 1) & mask) {
    const Cell& c = cells_[idx];
    ++steps;
    if (c.state == kEmpty) {
      NoteProbe(steps);
      return kNone;
    }
    if (c.state == kFull && KeyEquals(c, hash, key, len)) {
      NoteProbe(steps);
      return static_cast<std::uint32_t>(idx);
    }
  }
}

std::uint32_t OpenMap::Insert(const std::uint64_t* key, std::uint32_t len) {
  if (cells_.empty() || (used_ + 1) * 10 >= cells_.size() * 7) {
    // Grow only when live cells fill the table; when tombstones do (churn
    // at a steady live count), rebuild in place instead of doubling.
    const bool mostly_dead = size_ * 2 < used_;
    Rehash(cells_.empty()  ? 16
           : mostly_dead   ? cells_.size()
                           : cells_.size() * 2);
  } else if (dead_words_ > 64 && dead_words_ * 2 > pool_.size()) {
    // Same capacity, compacted pool: erases leave their key words behind
    // (and tombstone reuse appends without raising used_), so under pure
    // churn the pool would otherwise grow without ever tripping the
    // occupancy resize above.
    Rehash(cells_.size());
  }
  const std::uint64_t h = HashKey(key, len);
  const std::size_t mask = cells_.size() - 1;
  std::size_t tomb = static_cast<std::size_t>(-1);
  std::uint64_t steps = 0;
  for (std::size_t idx = h & mask;; idx = (idx + 1) & mask) {
    Cell& c = cells_[idx];
    ++steps;
    if (c.state == kFull) {
      if (KeyEquals(c, h, key, len)) {
        NoteProbe(steps);
        return static_cast<std::uint32_t>(idx);
      }
      continue;
    }
    if (c.state == kTombstone) {
      if (tomb == static_cast<std::size_t>(-1)) tomb = idx;
      continue;
    }
    const std::size_t target = tomb != static_cast<std::size_t>(-1) ? tomb : idx;
    NoteProbe(steps);
    Cell& tc = cells_[target];
    const bool reused_tomb = tc.state == kTombstone;
    tc.hash = h;
    tc.k01[0] = len > 0 ? key[0] : 0;
    tc.k01[1] = len > 1 ? key[1] : 0;
    tc.key_pos = static_cast<std::uint32_t>(pool_.size());
    tc.key_len = static_cast<std::uint16_t>(len);
    tc.state = kFull;
    pool_.insert(pool_.end(), key, key + len);
    ++size_;
    if (!reused_tomb) ++used_;
    return static_cast<std::uint32_t>(target);
  }
}

void OpenMap::EraseAt(std::uint32_t cell) {
  Cell& c = cells_[cell];
  c.state = kTombstone;
  std::vector<std::uint32_t>().swap(c.slots);
  --size_;
  dead_words_ += c.key_len;
}

void OpenMap::Rehash(std::size_t new_cap) {
  std::vector<Cell> old_cells = std::move(cells_);
  std::vector<std::uint64_t> old_pool = std::move(pool_);
  cells_.assign(new_cap, Cell{});
  pool_.clear();
  used_ = size_;
  dead_words_ = 0;
  const std::size_t mask = new_cap - 1;
  for (Cell& c : old_cells) {
    if (c.state != kFull) continue;
    std::size_t idx = c.hash & mask;
    while (cells_[idx].state == kFull) idx = (idx + 1) & mask;
    Cell& nc = cells_[idx];
    nc.hash = c.hash;
    nc.k01[0] = c.k01[0];
    nc.k01[1] = c.k01[1];
    nc.key_pos = static_cast<std::uint32_t>(pool_.size());
    nc.key_len = c.key_len;
    nc.state = kFull;
    pool_.insert(pool_.end(), old_pool.begin() + c.key_pos,
                 old_pool.begin() + c.key_pos + c.key_len);
    nc.slots = std::move(c.slots);
  }
}

std::size_t OpenMap::MemoryBytes() const {
  std::size_t bytes = cells_.capacity() * sizeof(Cell) +
                      pool_.capacity() * sizeof(std::uint64_t);
  for (const Cell& c : cells_)
    bytes += c.slots.capacity() * sizeof(std::uint32_t);
  return bytes;
}

// ----------------------------------------------------------- construction

namespace {
Program MustCompile(const Property& property) {
  std::optional<Program> prog = CompileProperty(property);
  SWMON_ASSERT_MSG(prog.has_value(),
                   "property exceeds the compiled engine's limits "
                   "(CreatePropertyMonitor falls back to the interpreter)");
  return std::move(*prog);
}
}  // namespace

CompiledEngine::CompiledEngine(Property property, MonitorConfig config)
    : property_(std::move(property)),
      prog_(MustCompile(property_)),
      config_(config),
      timers_([this](std::uint64_t slot, SimTime deadline) {
        OnTimerExpiry(static_cast<std::uint32_t>(slot), deadline);
      }) {
  const std::string err = property_.Validate();
  SWMON_ASSERT_MSG(err.empty(), err.c_str());
  interest_ = prog_.interest;
  stride_ = kWVars + static_cast<std::uint32_t>(prog_.num_vars());
  stores_.resize(prog_.num_stages());
  for (std::size_t k = 0; k < prog_.num_stages(); ++k)
    stores_[k].extra.resize(prog_.stages[k].extra_indexes.size());
  scratch_vars_.resize(prog_.num_vars());
  ecfg_ = config_.eviction;
  eviction_.Configure(ecfg_, prog_.num_vars());
  evict_enabled_ = eviction_.enabled();
  InitFailFast();
}

void CompiledEngine::InitFailFast() {
  const Instr& first = prog_.code[prog_.stages[0].pattern.begin];
  if (first.op == Op::kCondConstEq || first.op == Op::kCondConstNe) {
    st0_fast_valid_ = true;
    st0_fast_ = first;
    st0_fast_whole_ =
        prog_.code[prog_.stages[0].pattern.begin + 1].op == Op::kMatch;
  }
  // Required-presence masks: a pattern run is a straight-line conjunction
  // up to kForbidden/kMatch, and a required condition without
  // kFlagAllowAbsent fails outright when its field is absent — so an event
  // missing any such field provably fails ExecMatch, with no probe, no
  // counter, and no bind. (Forbidden-group conditions are excluded: an
  // absent field there makes the group NOT hold, which lets the pattern
  // match.) kCondVar* fields are included — in the contexts the fold
  // guards (stage-0 create, suppressors) the env is empty, so those
  // conditions need the field present to even be evaluated.
  const auto need_presence = [this](const PatternCode& p) {
    std::uint64_t need = 0;
    for (const Instr* ip = prog_.code.data() + p.begin;
         ip->op == Op::kCondConstEq || ip->op == Op::kCondConstNe ||
         ip->op == Op::kCondVarEq || ip->op == Op::kCondVarNe;
         ++ip) {
      if (!(ip->flags & kFlagAllowAbsent)) need |= std::uint64_t{1} << ip->field;
    }
    return need;
  };
  st0_need_ = need_presence(prog_.stages[0].pattern);
  sup_guards_.clear();
  for (const SuppressorCode& sup : prog_.suppressors)
    sup_guards_.push_back(
        SupGuard{sup.pattern.event_type, need_presence(sup.pattern)});
}

// ------------------------------------------------------------- execution

bool CompiledEngine::EvalCond(const Instr& i, const FieldMap& fields,
                              const std::uint64_t* vars,
                              std::uint64_t bound) const {
  const auto f = static_cast<FieldId>(i.field);
  if (!fields.Has(f)) return (i.flags & kFlagAllowAbsent) != 0;
  const std::uint64_t lhs = fields.GetUnchecked(f);
  std::uint64_t rhs;
  if (i.op == Op::kCondConstEq || i.op == Op::kCondConstNe) {
    rhs = i.imm;
  } else {
    if (!(bound >> i.var & 1)) return false;  // unbound vars never hold
    rhs = vars[i.var];
  }
  const bool eq = ((lhs ^ rhs) & i.mask) == 0;
  return (i.op == Op::kCondConstEq || i.op == Op::kCondVarEq) ? eq : !eq;
}

bool CompiledEngine::ExecMatch(std::uint32_t pc, const FieldMap& fields,
                               const std::uint64_t* vars,
                               std::uint64_t bound) const {
  const Instr* ip = prog_.code.data() + pc;
#if defined(__GNUC__) && !defined(SWMON_NO_COMPUTED_GOTO)
  // Label table indexed by Op; bind opcodes never appear in a pattern run.
  static const void* const kJump[] = {
      &&op_cond_const_eq, &&op_cond_const_ne, &&op_cond_var_eq,
      &&op_cond_var_ne,   &&op_forbidden,     &&op_match,
      &&op_unreachable,   &&op_unreachable,   &&op_unreachable,
      &&op_unreachable,   &&op_unreachable,
  };
#define SWMON_DISPATCH() goto* kJump[static_cast<std::size_t>(ip->op)]
  SWMON_DISPATCH();
op_cond_const_eq: {
  const auto f = static_cast<FieldId>(ip->field);
  if (!fields.Has(f)) {
    if (!(ip->flags & kFlagAllowAbsent)) return false;
  } else if (((fields.GetUnchecked(f) ^ ip->imm) & ip->mask) != 0) {
    return false;
  }
  ++ip;
  SWMON_DISPATCH();
}
op_cond_const_ne: {
  const auto f = static_cast<FieldId>(ip->field);
  if (!fields.Has(f)) {
    if (!(ip->flags & kFlagAllowAbsent)) return false;
  } else if (((fields.GetUnchecked(f) ^ ip->imm) & ip->mask) == 0) {
    return false;
  }
  ++ip;
  SWMON_DISPATCH();
}
op_cond_var_eq: {
  const auto f = static_cast<FieldId>(ip->field);
  if (!fields.Has(f)) {
    if (!(ip->flags & kFlagAllowAbsent)) return false;
  } else {
    if (!(bound >> ip->var & 1)) return false;
    if (((fields.GetUnchecked(f) ^ vars[ip->var]) & ip->mask) != 0)
      return false;
  }
  ++ip;
  SWMON_DISPATCH();
}
op_cond_var_ne: {
  const auto f = static_cast<FieldId>(ip->field);
  if (!fields.Has(f)) {
    if (!(ip->flags & kFlagAllowAbsent)) return false;
  } else {
    if (!(bound >> ip->var & 1)) return false;
    if (((fields.GetUnchecked(f) ^ vars[ip->var]) & ip->mask) == 0)
      return false;
  }
  ++ip;
  SWMON_DISPATCH();
}
op_forbidden: {
  const Instr* fi = ip + 1;
  bool all_hold = true;
  for (unsigned n = ip->aux; n-- > 0; ++fi) {
    if (!EvalCond(*fi, fields, vars, bound)) {
      all_hold = false;
      break;
    }
  }
  return !all_hold;  // kMatch is the next live instruction either way
}
op_match:
  return true;
op_unreachable:
  SWMON_ASSERT_MSG(false, "bind opcode in pattern run");
  return false;
#undef SWMON_DISPATCH
#else
  for (;; ++ip) {
    switch (ip->op) {
      case Op::kCondConstEq:
      case Op::kCondConstNe:
      case Op::kCondVarEq:
      case Op::kCondVarNe:
        if (!EvalCond(*ip, fields, vars, bound)) return false;
        break;
      case Op::kForbidden: {
        const Instr* fi = ip + 1;
        bool all_hold = true;
        for (unsigned n = ip->aux; n-- > 0; ++fi) {
          if (!EvalCond(*fi, fields, vars, bound)) {
            all_hold = false;
            break;
          }
        }
        return !all_hold;
      }
      case Op::kMatch:
        return true;
      default:
        SWMON_ASSERT_MSG(false, "bind opcode in pattern run");
        return false;
    }
  }
#endif
}

namespace {
constexpr std::uint32_t kBindFail = 0xffffffffu;
}

/// Walks the kRequireField prefix of a bind run. Returns the pc of the
/// first mutating instruction, or kBindFail when a required field is
/// absent — callers unfile the instance under the OLD env between this
/// check and ExecBindCommit (the re-key contract; see engine.cpp's
/// RunAdvancePass).
static std::uint32_t ExecRequire(const Program& prog, std::uint32_t pc,
                                 const FieldMap& fields) {
  const Instr* ip = prog.code.data() + pc;
  while (ip->op == Op::kRequireField) {
    if (!fields.Has(static_cast<FieldId>(ip->field))) return kBindFail;
    ++ip;
  }
  return static_cast<std::uint32_t>(ip - prog.code.data());
}

bool CompiledEngine::ExecBind(std::uint32_t pc, const FieldMap& fields,
                              std::uint64_t* vars, std::uint64_t& bound) {
  const std::uint32_t body = ExecRequire(prog_, pc, fields);
  if (body == kBindFail) return false;
  for (const Instr* ip = prog_.code.data() + body;; ++ip) {
    switch (ip->op) {
      case Op::kBindField:
        vars[ip->var] = fields.GetUnchecked(static_cast<FieldId>(ip->field));
        bound |= std::uint64_t{1} << ip->var;
        break;
      case Op::kBindHash: {
        std::uint64_t h = 0xcbf29ce484222325ULL;  // HashFieldsToRange
        const std::uint16_t* in = prog_.aux_fields.data() + ip->aux_pos;
        for (unsigned n = 0; n < ip->aux; ++n) {
          h ^= fields.GetUnchecked(static_cast<FieldId>(in[n]));
          h *= 0x100000001b3ULL;
          h ^= h >> 29;
        }
        vars[ip->var] = h % ip->modulus + ip->base;
        bound |= std::uint64_t{1} << ip->var;
        break;
      }
      case Op::kBindRoundRobin:
        vars[ip->var] = rr_counter_++ % ip->modulus + ip->base;
        bound |= std::uint64_t{1} << ip->var;
        break;
      default:  // kBindEnd
        return true;
    }
  }
}

// ------------------------------------------------------------------ stores

std::uint32_t CompiledEngine::AllocSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slab_.size() / stride_);
  slab_.resize(slab_.size() + stride_);
  scan_pos_.push_back(0);
  return slot;
}

template <typename VarAt>
bool CompiledEngine::BuildRecordKey(const std::uint64_t* rec,
                                    std::uint32_t count, VarAt&& var_at) {
  const std::uint64_t bound = rec[kWBound];
  key_buf_.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t var = var_at(i);
    if (!(bound >> var & 1)) return false;
    key_buf_.push_back(rec[kWVars + var]);
  }
  return true;
}

bool CompiledEngine::BuildLinkKey(const std::uint64_t* rec,
                                  const StageCode& sc) {
  return sc.link_count != 0 &&
         BuildRecordKey(rec, sc.link_count, [&](std::uint32_t j) {
           return prog_.links[sc.link_begin + j].var;
         });
}

bool CompiledEngine::BuildExtraKey(const std::uint64_t* rec, const Slice& x) {
  return BuildRecordKey(rec, x.count, [&](std::uint32_t j) {
    return prog_.index_vars[x.begin + j];
  });
}

namespace {
/// Swap-remove, exactly the interpreter's bucket-erase: order of the
/// remaining slots is part of the candidate-enumeration contract.
void EraseSlot(std::vector<std::uint32_t>& v, std::uint32_t slot) {
  auto it = std::find(v.begin(), v.end(), slot);
  if (it == v.end()) return;
  *it = v.back();
  v.pop_back();
}

void EraseKeyed(OpenMap& map, const std::vector<std::uint64_t>& key,
                std::uint32_t slot) {
  const std::uint32_t cell =
      map.Find(key.data(), static_cast<std::uint32_t>(key.size()));
  if (cell == OpenMap::kNone) return;
  EraseSlot(map.slots(cell), slot);
  if (map.slots(cell).empty()) map.EraseAt(cell);
}
}  // namespace

void CompiledEngine::InsertIntoStore(std::uint32_t slot) {
  std::uint64_t* rec = Rec(slot);
  const std::uint32_t stage = StageOf(rec);
  SWMON_ASSERT(stage >= 1 && stage < prog_.num_stages());
  StageStore& store = stores_[stage];
  const StageCode& sc = prog_.stages[stage];
  const auto file = [&](OpenMap& map) {
    const std::uint32_t cell = map.Insert(
        key_buf_.data(), static_cast<std::uint32_t>(key_buf_.size()));
    map.slots(cell).push_back(slot);
  };
  for (std::size_t i = 0; i < store.extra.size(); ++i)
    if (BuildExtraKey(rec, sc.extra_indexes[i])) file(store.extra[i]);
  if (BuildLinkKey(rec, sc)) {
    file(store.keyed);
    return;
  }
  scan_pos_[slot] = static_cast<std::uint32_t>(store.scan.size());
  store.scan.push_back(slot);
}

void CompiledEngine::RemoveFromStore(std::uint32_t slot) {
  const std::uint64_t* rec = Rec(slot);
  const std::uint32_t stage = StageOf(rec);
  if (stage < 1 || stage >= prog_.num_stages()) return;
  StageStore& store = stores_[stage];
  const StageCode& sc = prog_.stages[stage];
  for (std::size_t i = 0; i < store.extra.size(); ++i)
    if (BuildExtraKey(rec, sc.extra_indexes[i]))
      EraseKeyed(store.extra[i], key_buf_, slot);
  if (BuildLinkKey(rec, sc)) {
    EraseKeyed(store.keyed, key_buf_, slot);
    return;
  }
  // O(1) swap-remove through the back-pointer; the resulting order is the
  // interpreter's find-based swap-remove.
  const std::uint32_t pos = scan_pos_[slot];
  SWMON_ASSERT(pos < store.scan.size() && store.scan[pos] == slot);
  const std::uint32_t last = store.scan.back();
  store.scan[pos] = last;
  scan_pos_[last] = pos;
  store.scan.pop_back();
}

void CompiledEngine::BuildStage0Key(const std::uint64_t* vars) {
  key_buf_.clear();
  for (const std::uint16_t v : prog_.stage0_vars) key_buf_.push_back(vars[v]);
}

// -------------------------------------------------------------- lifecycle

void CompiledEngine::ArmWindow(std::uint32_t slot, const StageCode& completed,
                               const DataplaneEvent* ev) {
  std::int64_t window_ns = completed.window_ns;
  if (completed.window_field >= 0 && ev != nullptr) {
    // Presence was verified by the bind run's kRequireField prefix.
    window_ns = Duration::Seconds(static_cast<std::int64_t>(
                    ev->fields.GetUnchecked(
                        static_cast<FieldId>(completed.window_field))))
                    .nanos();
  }
  if (window_ns > 0) {
    // Ordinal = instance id (NOT the slot): deadline ties must fire in id
    // order in both engines and in every shard replica (timer_set.hpp).
    const SimTime deadline = now_ + Duration::Nanos(window_ns);
    timers_.Arm(slot, deadline, Rec(slot)[kWId]);
    if (evict_enabled_)
      eviction_.OnDeadline(Rec(slot)[kWId],
                           static_cast<std::uint64_t>(deadline.nanos()));
  } else {
    timers_.Cancel(slot);
    if (evict_enabled_)
      eviction_.OnDeadline(Rec(slot)[kWId], EvictionState::kNoDeadline);
  }
}

void CompiledEngine::ReportViolation(const std::uint64_t* rec, SimTime when,
                                     const std::string& trigger,
                                     std::uint32_t trigger_stage_index) {
  Violation v;
  v.property = prog_.name;
  v.time = when;
  v.instance_id = rec[kWId];
  v.trigger_stage = trigger;
  v.trigger_stage_index = trigger_stage_index;
  if (config_.provenance >= ProvenanceLevel::kLimited) {
    const std::uint64_t bound = rec[kWBound];
    for (std::size_t i = 0; i < prog_.num_vars(); ++i) {
      if (bound >> i & 1)
        v.bindings.emplace_back(prog_.vars[i], rec[kWVars + i]);
    }
  }
  SWMON_LOG_INFO("monitor", "%s", v.ToString().c_str());
  violations_.push_back(std::move(v));
  ++stats_.violations;
}

void CompiledEngine::DestroyInstance(std::uint32_t slot) {
  std::uint64_t* rec = Rec(slot);
  RemoveFromStore(slot);
  // Live records always have every stage-0 variable bound (they were bound
  // by stage 0's bind run at creation and vars are never unbound).
  BuildStage0Key(rec + kWVars);
  const std::uint32_t cell = stage0_index_.Find(
      key_buf_.data(), static_cast<std::uint32_t>(key_buf_.size()));
  if (cell != OpenMap::kNone) {
    // Order-preserving erase, like the interpreter's std::erase — the
    // stage-0 bucket's order drives refresh iteration.
    auto& slots = stage0_index_.slots(cell);
    slots.erase(std::remove(slots.begin(), slots.end(), slot), slots.end());
    if (slots.empty()) stage0_index_.EraseAt(cell);
  }
  timers_.Cancel(slot);
  SetStageMatch(rec, kDeadStage, 0);
  free_slots_.push_back(slot);
  --live_count_;
  if (evict_enabled_) eviction_.OnDestroy(rec[kWId]);
}

void CompiledEngine::AdvanceInstance(std::uint32_t slot,
                                     const DataplaneEvent* ev) {
  // Caller verified the match, committed env updates, and unfiled the
  // record from its stage store under the pre-update env.
  std::uint64_t* rec = Rec(slot);
  const std::uint32_t stage = StageOf(rec);
  const StageCode& completed = prog_.stages[stage];
  SetStageMatch(rec, stage + 1, 0);
  if (stage + 1 == prog_.num_stages()) {
    ReportViolation(rec, now_, completed.label, stage);
    DestroyInstance(slot);
    return;
  }
  ArmWindow(slot, completed, ev);
  InsertIntoStore(slot);
}

void CompiledEngine::OnTimerExpiry(std::uint32_t slot, SimTime deadline) {
  std::uint64_t* rec = Rec(slot);
  const std::uint32_t stage = StageOf(rec);
  if (stage == kDeadStage) return;  // defensive; Cancel precedes slot reuse
  now_ = std::max(now_, deadline);
  if (stage < prog_.num_stages() &&
      prog_.stages[stage].kind == StageKind::kTimeout) {
    // Feature 7: the elapsed window IS the observation.
    ++stats_.timeout_observations;
    ++stats_.instances_advanced;
    RemoveFromStore(slot);  // env is unchanged, so the filed key is current
    AdvanceInstance(slot, nullptr);
  } else {
    // Feature 3: the window lapsed before the next observation.
    ++stats_.instances_expired;
    DestroyInstance(slot);
  }
}

void CompiledEngine::EvictIfNeeded() {
  if (!evict_enabled_) return;
  while (live_count_ > eviction_.cap()) {
    const EvictionState::Victim victim = eviction_.PickVictim();
    DestroyInstance(static_cast<std::uint32_t>(victim.handle));
    ++stats_.instances_evicted;
    if (eviction_.bytes_bound())
      ++evictions_bytes_;
    else
      ++evictions_capacity_;
  }
}

// ------------------------------------------------------------- event path

void CompiledEngine::AdvanceTime(SimTime now) {
  if (now <= now_) return;
  // Skip the out-of-line heap walk entirely when nothing is armed — for
  // windowless properties this is every single event.
  if (timers_.heap_size() != 0) timers_.Advance(now);
  now_ = now;
}

void CompiledEngine::ProcessEvent(const DataplaneEvent& event) {
  ++event_seq_;
  ++stats_.events;
  AdvanceTime(event.time);
  RunPasses(event, ~std::uint64_t{0});
}

void CompiledEngine::ProcessShardedEvent(const DataplaneEvent& event,
                                         std::uint64_t stage_mask,
                                         bool count) {
  // Restricted mirror of ProcessEvent (see engine.cpp): exactly one replica
  // per event counts it, and the driver already advanced time so the
  // AdvanceTime here is a monotonicity no-op for normal sharded delivery.
  ++event_seq_;
  if (count) {
    ++stats_.events;
    ++stats_.events_dispatched;
  }
  AdvanceTime(event.time);
  RunPasses(event, stage_mask);
}

// ---------------------------------------------------------- batch execution

bool CompiledEngine::WouldEnterCreate(const DataplaneEvent& ev) const {
  const auto t = static_cast<std::size_t>(ev.type);
  const PatternCode& p0 = prog_.stages[0].pattern;
  if (p0.event_type >= 0 && static_cast<std::size_t>(p0.event_type) != t)
    return false;
  if ((ev.fields.presence_mask() & st0_need_) != st0_need_) return false;
  if (!st0_fast_valid_) return true;
  const auto f = static_cast<FieldId>(st0_fast_.field);
  if (!ev.fields.Has(f)) return (st0_fast_.flags & kFlagAllowAbsent) != 0;
  const bool eq =
      ((ev.fields.GetUnchecked(f) ^ st0_fast_.imm) & st0_fast_.mask) == 0;
  return st0_fast_.op == Op::kCondConstEq ? eq : !eq;
}

bool CompiledEngine::SuppressorsInert(const DataplaneEvent& ev) const {
  const auto t = static_cast<std::size_t>(ev.type);
  const std::uint64_t present = ev.fields.presence_mask();
  for (const SupGuard& g : sup_guards_) {
    if (g.event_type >= 0 && static_cast<std::size_t>(g.event_type) != t)
      continue;
    if ((present & g.need) != g.need) continue;
    return false;  // this suppressor's match could succeed and Insert
  }
  return true;
}

void CompiledEngine::ProcessEventBatch(const DataplaneEvent* events,
                                       std::size_t count,
                                       BatchEventResult* results) {
  const auto interested = [this](const DataplaneEvent& ev) {
    return ((interest_ >> static_cast<int>(ev.type)) & 1) != 0;
  };
  // With no live instances the abort/advance passes are no-ops, so for a
  // dispatched event only creation and the suppressor sweep can touch
  // state. An event that can't enter the create pass (WouldEnterCreate)
  // and can't feed any suppressor (SuppressorsInert) is then provably
  // inert: its whole effect is three counters and the clock. Timer pops
  // with live_count_ == 0 are stale pops and can't resurrect instances, so
  // live_count_ stays 0 across the folded AdvanceTime.
  const auto inert = [&](const DataplaneEvent& ev) {
    return interested(ev) && !WouldEnterCreate(ev) && SuppressorsInert(ev);
  };
  // Folding skips the per-event violation marks, so it runs only when the
  // caller does not want them.
  const bool fold = results == nullptr;
  for (std::size_t i = 0; i < count;) {
    const DataplaneEvent& ev = events[i];
    if (fold && live_count_ == 0 && inert(ev)) {
      std::size_t j = i + 1;
      while (j < count && inert(events[j])) ++j;
      const std::size_t n = j - i;
      stats_.events += n;
      stats_.events_dispatched += n;
      event_seq_ += n;
      AdvanceTime(events[j - 1].time);
      i = j;
      continue;
    }
    if (fold && !interested(ev)) {
      // A run of filtered events folds into one clock advance:
      // AdvanceTime(t1); AdvanceTime(t2) pops exactly the timers
      // AdvanceTime(t2) alone would, in the same deadline order, with
      // deadline-derived timestamps — so skipping the intermediate calls
      // is unobservable.
      std::size_t j = i + 1;
      while (j < count && !interested(events[j])) ++j;
      stats_.events_filtered += j - i;
      AdvanceTime(events[j - 1].time);
      i = j;
      continue;
    }
    if (interested(ev)) {
      // ProcessDispatchedEvent, inlined.
      ++stats_.events_dispatched;
      ++event_seq_;
      ++stats_.events;
      AdvanceTime(ev.time);
      RunPasses(ev, ~std::uint64_t{0});
    } else {
      // NoteFilteredEvent, inlined.
      ++stats_.events_filtered;
      AdvanceTime(ev.time);
    }
    if (results != nullptr) {
      BatchEventResult& r = results[i];
      r.violations_after = static_cast<std::uint32_t>(violations_.size());
      r.violations_clock = r.violations_after;
      r.live_after = static_cast<std::uint32_t>(live_count_);
      r.created_after = stats_.instances_created;
    }
    ++i;
  }
}

void CompiledEngine::RunPasses(const DataplaneEvent& event,
                               std::uint64_t stage_mask) {
  const auto t = static_cast<std::size_t>(event.type);
  if (live_count_ != 0) {
    const std::uint64_t abort_mask = prog_.abort_stage_mask[t] & stage_mask;
    if (abort_mask != 0) RunAbortPass(event, abort_mask);
  }
  if (live_count_ != 0) {
    const std::uint64_t advance_mask =
        prog_.advance_stage_mask[t] & stage_mask;
    if (advance_mask != 0) RunAdvancePass(event, advance_mask);
  }
  if (!(stage_mask & 1)) return;  // create + suppressor belong to stage 0
  // Stage-0 fail-fast: the type check plus the pattern's leading constant
  // condition, evaluated inline. Exactly the first steps RunCreatePass
  // would take (it touches no state before its ExecMatch), so skipping
  // the call on failure is unobservable.
  const PatternCode& p0 = prog_.stages[0].pattern;
  bool enter_create = p0.event_type < 0 ||
                      static_cast<std::size_t>(p0.event_type) == t;
  if (enter_create && st0_fast_valid_) {
    const auto f = static_cast<FieldId>(st0_fast_.field);
    if (!event.fields.Has(f)) {
      enter_create = (st0_fast_.flags & kFlagAllowAbsent) != 0;
    } else {
      const bool eq =
          ((event.fields.GetUnchecked(f) ^ st0_fast_.imm) & st0_fast_.mask) ==
          0;
      enter_create = st0_fast_.op == Op::kCondConstEq ? eq : !eq;
    }
  }
  if (enter_create) RunCreatePass(event);
  if (!prog_.suppressors.empty()) RunSuppressorPass(event);
  if (live_count_ > stats_.peak_live) stats_.peak_live = live_count_;
}

void CompiledEngine::RunAbortPass(const DataplaneEvent& ev,
                                  std::uint64_t stage_mask) {
  const auto t = static_cast<std::size_t>(ev.type);
  const std::uint64_t present = ev.fields.presence_mask();
  for (std::size_t k = 1; k < prog_.num_stages(); ++k) {
    if (!(stage_mask >> k & 1)) continue;
    const StageCode& st = prog_.stages[k];
    const StageStore& store = stores_[k];

    // Prefilter (DESIGN.md 5m): type, required presence and the constant
    // conditions decide each abort for every instance at once.
    live_aborts_.clear();
    bool walk = false;
    for (std::uint32_t j = 0; j < st.aborts.size(); ++j) {
      const AbortCode& a = st.aborts[j];
      if (a.pattern.event_type >= 0 &&
          static_cast<std::size_t>(a.pattern.event_type) != t)
        continue;
      if ((present & a.need) != a.need) continue;
      if (a.prefilter != AbortCode::kNoPrefilter &&
          !ExecMatch(a.prefilter, ev.fields, scratch_vars_.data(), 0))
        continue;
      live_aborts_.push_back(j);
      if (a.index == kAbortWalk) walk = true;
    }
    if (live_aborts_.empty()) continue;

    // Candidates: the union of the surviving aborts' candidate sets, each
    // instance counted once (the same rule as engine.cpp).
    abort_cand_.clear();
    const auto gather = [&](const std::vector<std::uint32_t>& slots) {
      for (const std::uint32_t slot : slots)
        abort_cand_.push_back(EvictionEntry{Rec(slot)[kWId], slot});
    };
    if (walk) {
      store.keyed.ForEach(gather);
      gather(store.scan);
    } else {
      for (const std::uint32_t j : live_aborts_) {
        const AbortCode& a = st.aborts[j];
        key_buf_.clear();
        for (std::uint32_t i = 0; i < a.probe.count; ++i)  // all in a.need
          key_buf_.push_back(ev.fields.GetUnchecked(
              static_cast<FieldId>(prog_.key_fields[a.probe.begin + i])));
        const OpenMap& index = a.index == kLinkIndex
                                   ? store.keyed
                                   : store.extra[a.index - kFirstExtraIndex];
        const std::uint32_t cell =
            index.Find(key_buf_.data(), a.probe.count);
        if (cell != OpenMap::kNone) gather(index.slots(cell));
      }
      if (live_aborts_.size() > 1) {
        std::sort(abort_cand_.begin(), abort_cand_.end(),
                  [](const EvictionEntry& x, const EvictionEntry& y) {
                    return x.id < y.id;
                  });
        abort_cand_.erase(
            std::unique(abort_cand_.begin(), abort_cand_.end(),
                        [](const EvictionEntry& x, const EvictionEntry& y) {
                          return x.id == y.id;
                        }),
            abort_cand_.end());
      }
    }

    victims_.clear();
    for (const EvictionEntry& c : abort_cand_) {
      const std::uint64_t* rec = Rec(c.slot);
      if (StageOf(rec) != k) continue;
      ++stats_.candidate_checks;
      for (const std::uint32_t j : live_aborts_) {
        if (ExecMatch(st.aborts[j].pattern.begin, ev.fields, rec + kWVars,
                      rec[kWBound])) {
          victims_.push_back(c);
          break;
        }
      }
    }

    // Sorted by instance id — the engine-independent destruction order
    // both engines commit to (see engine.cpp's RunAbortPass).
    std::sort(victims_.begin(), victims_.end(),
              [](const EvictionEntry& a, const EvictionEntry& b) {
                return a.id < b.id;
              });
    for (const EvictionEntry& v : victims_) {
      DestroyInstance(v.slot);
      ++stats_.instances_aborted;
    }
  }
}

void CompiledEngine::RunAdvancePass(const DataplaneEvent& ev,
                                    std::uint64_t stage_mask) {
  // Highest stage first so an instance advanced into stage k+1 is not
  // examined again there by the same event.
  for (std::size_t k = prog_.num_stages(); k-- > 1;) {
    if (!(stage_mask >> k & 1)) continue;
    const StageCode& st = prog_.stages[k];
    StageStore& store = stores_[k];
    // Required-presence prefilter, as in engine.cpp.
    if ((ev.fields.presence_mask() & st.need) != st.need) continue;

    cand_.clear();
    if (st.link_count != 0) {
      // Link-key lookup: an event missing a link field can't project the
      // key, leaving only the scan candidates.
      std::uint32_t cell = OpenMap::kNone;
      key_buf_.clear();
      bool projectable = true;
      for (std::uint32_t i = 0; i < st.link_count; ++i) {
        const auto f =
            static_cast<FieldId>(prog_.links[st.link_begin + i].field);
        if (!ev.fields.Has(f)) {
          projectable = false;
          break;
        }
        key_buf_.push_back(ev.fields.GetUnchecked(f));
      }
      if (projectable)
        cell = store.keyed.Find(key_buf_.data(),
                                static_cast<std::uint32_t>(key_buf_.size()));
      if (cell != OpenMap::kNone) {
        const auto& slots = store.keyed.slots(cell);
        cand_.insert(cand_.end(), slots.begin(), slots.end());
      }
      cand_.insert(cand_.end(), store.scan.begin(), store.scan.end());
    } else {
      // Multiple match (Feature 8): every instance at this stage is a
      // candidate. Unlinked stages only ever file into scan.
      cand_.insert(cand_.end(), store.scan.begin(), store.scan.end());
    }

    for (const std::uint32_t slot : cand_) {
      std::uint64_t* rec = Rec(slot);
      if (StageOf(rec) != k || rec[kWSeq] == event_seq_) continue;
      ++stats_.candidate_checks;
      if (!ExecMatch(st.pattern.begin, ev.fields, rec + kWVars, rec[kWBound]))
        continue;
      // The bind run's presence checks are the only way it can fail; run
      // them first so the unfile-under-old-env / mutate / re-file sequence
      // below can bind straight into the record.
      const std::uint32_t body = ExecRequire(prog_, st.bind_begin, ev.fields);
      if (body == kBindFail) continue;
      rec[kWSeq] = event_seq_;
      // LRU recency stamp — mirrors the interpreter's touch point exactly.
      if (evict_enabled_) eviction_.OnTouch(rec[kWId], event_seq_);
      const bool rebinds = st.has_bindings;
      if (rebinds) RemoveFromStore(slot);
      std::uint64_t bound = rec[kWBound];
      ExecBind(body, ev.fields, rec + kWVars, bound);
      rec[kWBound] = bound;
      const std::uint32_t matches = MatchesOf(rec) + 1;
      SetStageMatch(rec, static_cast<std::uint32_t>(k), matches);
      // Quantitative stages (extension): accumulate matches until the
      // stage's threshold before the observation counts as complete.
      if (matches < st.min_count) {
        if (rebinds) InsertIntoStore(slot);  // re-file under the new key
        continue;
      }
      if (!rebinds) RemoveFromStore(slot);
      ++stats_.instances_advanced;
      AdvanceInstance(slot, &ev);
    }
  }
}

void CompiledEngine::RunCreatePass(const DataplaneEvent& ev) {
  const StageCode& st0 = prog_.stages[0];
  if (st0.pattern.event_type >= 0 &&
      static_cast<std::size_t>(st0.pattern.event_type) !=
          static_cast<std::size_t>(ev.type))
    return;
  // ProcessEvent's fail-fast already proved the leading constant condition
  // when st0_fast_valid_ — resume the pattern run right after it, or skip
  // the run entirely when that condition was the whole pattern.
  if (!st0_fast_whole_) {
    const std::uint32_t pc = st0.pattern.begin + (st0_fast_valid_ ? 1 : 0);
    if (!ExecMatch(pc, ev.fields, scratch_vars_.data(), 0)) return;
  }

  // Suppression (negated-history preconditions).
  if (prog_.suppression_key_count != 0) {
    std::uint32_t cell = OpenMap::kNone;
    key_buf_.clear();
    bool all_present = true;
    for (std::uint32_t i = 0; i < prog_.suppression_key_count; ++i) {
      const auto f = static_cast<FieldId>(
          prog_.key_fields[prog_.suppression_key_begin + i]);
      if (!ev.fields.Has(f)) {
        all_present = false;
        break;
      }
      key_buf_.push_back(ev.fields.GetUnchecked(f));
    }
    if (all_present)
      cell = suppressed_.Find(key_buf_.data(),
                              static_cast<std::uint32_t>(key_buf_.size()));
    if (cell != OpenMap::kNone) {
      ++stats_.suppressed_creations;
      return;
    }
  }

  // The dedup path below discards a *successful* bind — snapshot the
  // round-robin counter so a duplicate stage-0 match never consumes a
  // slot (see engine.cpp's RunCreatePass).
  const std::uint64_t rr_before = rr_counter_;
  std::uint64_t bound = 0;
  if (!ExecBind(st0.bind_begin, ev.fields, scratch_vars_.data(), bound))
    return;

  // Dedup / refresh (Feature 3's per-pair timer semantics).
  BuildStage0Key(scratch_vars_.data());
  const std::uint32_t key_len = static_cast<std::uint32_t>(key_buf_.size());
  const std::uint32_t dedup = stage0_index_.Find(key_buf_.data(), key_len);
  if (dedup != OpenMap::kNone && !stage0_index_.slots(dedup).empty()) {
    rr_counter_ = rr_before;
    if (st0.refresh_on_rematch) {
      for (const std::uint32_t slot : stage0_index_.slots(dedup)) {
        if (StageOf(Rec(slot)) != 1) continue;
        ArmWindow(slot, st0, &ev);
        ++stats_.instances_refreshed;
        if (evict_enabled_) eviction_.OnTouch(Rec(slot)[kWId], event_seq_);
      }
    }
    return;  // an equivalent attempt is already live
  }

  const std::uint64_t id = next_instance_id_++;
  const std::uint32_t slot = AllocSlot();
  std::uint64_t* rec = Rec(slot);
  rec[kWId] = id;
  rec[kWCreated] = static_cast<std::uint64_t>(now_.nanos());
  rec[kWSeq] = event_seq_;
  SetStageMatch(rec, 0, 0);
  rec[kWBound] = bound;
  std::copy(scratch_vars_.begin(), scratch_vars_.end(), rec + kWVars);
  // AllocSlot may have grown the slab, but key_buf_ still holds the
  // stage-0 key built above.
  const std::uint32_t cell = stage0_index_.Insert(key_buf_.data(), key_len);
  stage0_index_.slots(cell).push_back(slot);
  if (evict_enabled_) eviction_.OnCreate(id, slot, event_seq_);
  ++stats_.instances_created;
  ++live_count_;
  AdvanceInstance(slot, &ev);  // commits stage 0 -> 1 (or violates if n==1)
  EvictIfNeeded();
}

void CompiledEngine::RunSuppressorPass(const DataplaneEvent& ev) {
  for (const SuppressorCode& sup : prog_.suppressors) {
    if (sup.pattern.event_type >= 0 &&
        static_cast<std::size_t>(sup.pattern.event_type) !=
            static_cast<std::size_t>(ev.type))
      continue;
    // Suppressor patterns evaluate under an empty environment.
    if (!ExecMatch(sup.pattern.begin, ev.fields, scratch_vars_.data(), 0))
      continue;
    key_buf_.clear();
    bool all_present = true;
    for (std::uint32_t i = 0; i < sup.key_count; ++i) {
      const auto f = static_cast<FieldId>(prog_.key_fields[sup.key_begin + i]);
      if (!ev.fields.Has(f)) {
        all_present = false;
        break;
      }
      key_buf_.push_back(ev.fields.GetUnchecked(f));
    }
    if (all_present)
      suppressed_.Insert(key_buf_.data(),
                         static_cast<std::uint32_t>(key_buf_.size()));
  }
}

// --------------------------------------------------------------- reporting

std::size_t CompiledEngine::StateBytes() const {
  std::size_t bytes = slab_.capacity() * sizeof(std::uint64_t) +
                      free_slots_.capacity() * sizeof(std::uint32_t) +
                      stage0_index_.MemoryBytes() + suppressed_.MemoryBytes();
  bytes += scan_pos_.capacity() * sizeof(std::uint32_t);
  for (const StageStore& s : stores_) {
    bytes += s.keyed.MemoryBytes() + s.scan.capacity() * sizeof(std::uint32_t);
    for (const OpenMap& m : s.extra) bytes += m.MemoryBytes();
  }
  return bytes;
}

void CompiledEngine::CollectInto(telemetry::Snapshot& snap,
                                 std::string_view name) const {
  MonitorStats s = stats_;
  s.timers_armed = timers_.total_armed();
  s.timer_stale_pops = timers_.stale_popped();
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
                static_cast<std::int64_t>(live_count_));
  snap.SetGauge(prefix + "eviction_queue",
                static_cast<std::int64_t>(eviction_.QueueSize()));
  snap.SetGauge(prefix + "timers_pending",
                static_cast<std::int64_t>(timers_.armed_count()));
  // Engine-neutral modeled state bytes (see engine.cpp: the byte-cap model
  // doubles as the gauge so both engines publish identical values).
  snap.SetGauge(prefix + "state_bytes",
                static_cast<std::int64_t>(live_count_ *
                                          ModelInstanceBytes(prog_.num_vars())));
  if (evict_enabled_) {
    snap.SetCounter(prefix + "evictions.policy." +
                        EvictionPolicyName(ecfg_.policy),
                    s.instances_evicted);
    snap.SetCounter(prefix + "evictions.reason.capacity",
                    evictions_capacity_);
    snap.SetCounter(prefix + "evictions.reason.bytes", evictions_bytes_);
  }

  // OpenMap probe telemetry, aggregated over every index this engine owns
  // (stage-0 dedup, suppression set, per-stage link and abort indexes),
  // published under monitor.compiled.<name>.*. Deterministic for a given
  // delivered stream — batch and scalar execution produce identical values,
  // which batch_exec_test asserts; the interpreter publishes none of these
  // (tests that hold the engines' snapshots equal filter the prefix).
  OpenMap::ProbeStats agg;
  const auto acc = [&agg](const OpenMap& m) {
    const OpenMap::ProbeStats& p = m.probe_stats();
    agg.probes += p.probes;
    agg.probe_steps += p.probe_steps;
    agg.shortkey_hits += p.shortkey_hits;
    agg.shortkey_misses += p.shortkey_misses;
    for (std::size_t i = 0; i < 16; ++i) agg.probe_len[i] += p.probe_len[i];
  };
  acc(stage0_index_);
  acc(suppressed_);
  for (const StageStore& st : stores_) {
    acc(st.keyed);
    for (const OpenMap& m : st.extra) acc(m);
  }
  std::string cprefix = "monitor.compiled.";
  cprefix.append(name);
  cprefix += '.';
  snap.SetCounter(cprefix + "probes", agg.probes);
  snap.SetCounter(cprefix + "probe_steps", agg.probe_steps);
  snap.SetCounter(cprefix + "shortkey_hits", agg.shortkey_hits);
  snap.SetCounter(cprefix + "shortkey_misses", agg.shortkey_misses);
  telemetry::HistogramData hist;
  hist.count = agg.probes;
  hist.sum = agg.probe_steps;
  hist.buckets.assign(agg.probe_len, agg.probe_len + 16);
  hist.TrimTrailingZeros();
  snap.SetHistogram(cprefix + "probe_len", hist);
}

}  // namespace swmon::compiled
