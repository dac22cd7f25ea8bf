#include "monitor/shard_plan.hpp"

#include <algorithm>

namespace swmon {

std::uint64_t ShardHash(const FieldMap& fields,
                        const std::vector<FieldId>& extraction_fields) {
  // FNV-1a with FlowKey's extra fold, one (presence, value) pair per field.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (const FieldId f : extraction_fields) {
    if (fields.Has(f)) {
      mix(1);
      mix(fields.GetUnchecked(f));
    } else {
      mix(0);
    }
  }
  return h;
}

namespace {

/// The keyed-store shape (see MonitorEngine's constructor): an equality
/// whose projection from the event provably equals the instance's variable
/// whenever the condition holds.
bool IsIndexableEq(const Condition& c) {
  return c.op == CmpOp::kEq && c.rhs.kind == Term::Kind::kVar &&
         c.mask == ~std::uint64_t{0} && !c.allow_absent;
}

}  // namespace

std::optional<ShardPlan> BuildShardPlan(const Property& p,
                                        const MonitorConfig& config,
                                        std::string* why) {
  const auto fail = [&](const char* reason) -> std::optional<ShardPlan> {
    if (why) *why = reason;
    return std::nullopt;
  };

  if (p.num_stages() == 0 || p.num_stages() > 64)
    return fail("stage count outside the 64-bit stage-mask width");
  // Eviction routes state through a path the analysis does not cover: the
  // victim order is global.
  if (config.eviction.enabled())
    return fail("bounded eviction: the victim order is global across instances");
  if (!p.suppressors.empty())
    return fail("suppressors: the suppression set is global keyed state");

  const Stage& st0 = p.stages[0];
  if (st0.kind != StageKind::kEvent)
    return fail("stage 0 is not an event stage");
  if (!st0.pattern.event_type)
    return fail("stage 0 matches any event type (no per-type lane)");

  for (const Stage& st : p.stages) {
    if (!st.aborts.empty())
      return fail("abort patterns can kill instances on any replica");
    if (st.window_from_field)
      return fail("field-derived windows break the fixed-window tie order");
    for (const Binding& b : st.bindings)
      if (b.kind == Binding::Kind::kRoundRobin)
        return fail("round-robin bindings draw from a global counter");
  }

  // Candidate routing vars: stage-0 kField bindings (the identity key a new
  // instance is created under), minus anything a later stage rebinds — a
  // rebound routing value would migrate the instance across shards.
  std::vector<std::pair<VarId, FieldId>> candidates;
  for (const Binding& b : st0.bindings) {
    if (b.kind != Binding::Kind::kField) continue;
    const bool dup = std::any_of(
        candidates.begin(), candidates.end(),
        [&](const auto& c) { return c.first == b.var; });
    if (!dup) candidates.emplace_back(b.var, b.field);
  }
  for (std::size_t k = 1; k < p.num_stages(); ++k) {
    for (const Binding& b : p.stages[k].bindings) {
      std::erase_if(candidates,
                    [&](const auto& c) { return c.first == b.var; });
    }
  }
  if (candidates.empty())
    return fail("no stage-0 field binding survives later rebinds");

  // Per later event stage: require (a) an event type lane can be built,
  // (b) the engines' keyed store always files instances under a full key
  // (every link var bound before the stage is reached — otherwise the
  // instance lands in a scan list visible to one replica only), and
  // (c) every candidate routing var is pinned by an indexable equality.
  std::vector<bool> bound_before(p.num_vars(), false);
  for (const Binding& b : st0.bindings) bound_before[b.var] = true;

  // first_eq_field[k][v]: the field whose value equals var v at stage k.
  std::vector<std::vector<std::optional<FieldId>>> first_eq_field(
      p.num_stages(), std::vector<std::optional<FieldId>>(p.num_vars()));

  for (std::size_t k = 1; k < p.num_stages(); ++k) {
    const Stage& st = p.stages[k];
    if (st.kind != StageKind::kEvent) continue;  // timeout: timer-local
    if (!st.pattern.event_type)
      return fail("a later stage matches any event type (no per-type lane)");
    bool any_link = false;
    for (const Condition& c : st.pattern.conditions) {
      if (!IsIndexableEq(c)) continue;
      any_link = true;
      if (!bound_before[c.rhs.var])
        return fail("wandering match: a link var binds only at a later "
                    "stage, so instances wait in scan lists");
      if (!first_eq_field[k][c.rhs.var]) first_eq_field[k][c.rhs.var] = c.field;
    }
    if (!any_link)
      return fail("multiple match: a stage with no indexable equality "
                  "addresses every instance at once");
    std::erase_if(candidates, [&](const auto& c) {
      return !first_eq_field[k][c.first].has_value();
    });
    if (candidates.empty())
      return fail("no stage-0 binding is pinned by an indexable equality "
                  "at every later event stage");
    for (const Binding& b : st.bindings) bound_before[b.var] = true;
  }

  ShardPlan plan;
  for (const auto& [var, field] : candidates) plan.routing_vars.push_back(var);

  // Build one lane per (type, field tuple); merge stage bits on collision.
  const auto add_lane = [&](DataplaneEventType type, std::uint64_t stage_bit,
                            std::vector<FieldId> fields) {
    for (ShardExtraction& e : plan.extractions) {
      if (e.type == type && e.fields == fields) {
        e.stage_bits |= stage_bit;
        return;
      }
    }
    plan.extractions.push_back(
        ShardExtraction{type, stage_bit, false, std::move(fields)});
  };

  {
    std::vector<FieldId> fields;
    for (const auto& [var, field] : candidates) fields.push_back(field);
    add_lane(*st0.pattern.event_type, 1, std::move(fields));
  }
  for (std::size_t k = 1; k < p.num_stages(); ++k) {
    const Stage& st = p.stages[k];
    if (st.kind != StageKind::kEvent) continue;
    std::vector<FieldId> fields;
    for (const auto& [var, unused] : candidates)
      fields.push_back(*first_eq_field[k][var]);
    add_lane(*st.pattern.event_type, std::uint64_t{1} << k, std::move(fields));
  }

  for (std::uint32_t i = 0; i < plan.extractions.size(); ++i) {
    plan.lanes_by_type[static_cast<std::size_t>(plan.extractions[i].type)]
        .push_back(i);
  }
  for (auto& lanes : plan.lanes_by_type) {
    if (lanes.empty()) continue;
    plan.max_lanes =
        std::max(plan.max_lanes, static_cast<std::uint32_t>(lanes.size()));
    // The lane gating the lowest stage attributes the event count; one and
    // only one replica per event runs with `count` set.
    std::uint32_t best = lanes[0];
    for (const std::uint32_t li : lanes) {
      const std::uint64_t a = plan.extractions[li].stage_bits;
      const std::uint64_t b = plan.extractions[best].stage_bits;
      if ((a & -a) < (b & -b)) best = li;
    }
    plan.extractions[best].counts = true;
  }
  return plan;
}

}  // namespace swmon
