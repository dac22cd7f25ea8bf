// Compile-time plan for indexed aborts (DESIGN.md §5m), shared by both
// engines so their candidate sets — and therefore `candidate_checks` —
// cannot drift apart.
//
// An abort pattern (Feature 4) kills every instance waiting at its stage
// that it matches. Walking every live instance per event of the abort's
// type makes the per-event cost grow with state an attacker controls (a
// PORT or DHCP flood), so each abort gets:
//
//   * a prefilter — the required-presence mask and the constant conditions
//     of its conjunction. Both are instance-independent: an event failing
//     them fails the abort for every instance, so a stage whose every abort
//     fails its prefilter is skipped without touching the store;
//   * a keyed probe — the abort's full-width, non-allow_absent
//     `field == $var` terms (the same rule as the stage link key) form an
//     index key over canonical var-id order. The candidates are the
//     instances filed under the event's projection of those fields.
//     Instances with an unbound key var are never candidates: a condition
//     on an unbound var never holds. A stage keeps one index per distinct
//     var list, shared between its link key and its aborts.
//
// An abort without a keyable term (a link-down abort with only constant
// conditions) keeps the stage-wide walk after its prefilter.
#pragma once

#include <cstdint>
#include <vector>

#include "monitor/spec.hpp"

namespace swmon {

/// One `field == $var` term of an index key.
struct KeyTerm {
  FieldId field;
  VarId var;

  bool operator==(const KeyTerm&) const = default;
};

/// The keyable terms of `p`'s required conjunction: full-width equality
/// against a variable, excluding allow_absent conditions (an event lacking
/// the field still satisfies those, but a keyed lookup projects the
/// event's field values and would never reach the instance). Sorted by var
/// id, ties in condition order, so two patterns over the same var list
/// share one index whatever their fields.
std::vector<KeyTerm> KeyTerms(const Pattern& p);

/// Presence mask of every field a required (non-allow_absent) condition of
/// `p`'s conjunction reads: an event missing one fails `p` for every
/// instance, before any env is consulted. The advance pass uses it to skip
/// a stage's probe, and every abort prefilter starts with it.
std::uint64_t RequiredPresence(const Pattern& p);

/// Index ids an abort can probe: the stage's link index, an abort-only
/// index (kFirstExtraIndex + i), or none.
inline constexpr int kAbortWalk = -1;
inline constexpr int kLinkIndex = 0;
inline constexpr int kFirstExtraIndex = 1;

struct AbortPlan {
  /// Presence mask of every field a required (non-allow_absent) condition
  /// of the conjunction reads; an event missing one fails the abort.
  std::uint64_t need = 0;
  /// The conjunction's constant conditions (evaluable without an env).
  std::vector<Condition> consts;
  int index = kAbortWalk;
  /// Event fields projected into the probe key, in the index's var order.
  std::vector<FieldId> probe;
};

struct StageAbortPlan {
  /// Var lists of the indexes only aborts use (extra index i has id
  /// kFirstExtraIndex + i). Empty when `indexed` was false.
  std::vector<std::vector<VarId>> extra;
  std::vector<AbortPlan> aborts;  // parallel to Stage::aborts
};

/// Plans stage `st`'s aborts given its link key (KeyTerms of its pattern,
/// or empty). With `indexed` false every abort walks the stage (the
/// interpreter's force_linear_store ablation); prefilters are kept.
StageAbortPlan PlanAborts(const Stage& st, const std::vector<KeyTerm>& link,
                          bool indexed);

}  // namespace swmon
