#include "monitor/abort_index.hpp"

#include <algorithm>

namespace swmon {

namespace {

VarId VarOf(VarId v) { return v; }
VarId VarOf(const KeyTerm& t) { return t.var; }

/// Do `terms` carry exactly the var list `vars` (read through VarOf)?
template <typename Vars>
bool SameVars(const std::vector<KeyTerm>& terms, const Vars& vars) {
  if (terms.size() != vars.size()) return false;
  for (std::size_t i = 0; i < terms.size(); ++i)
    if (terms[i].var != VarOf(vars[i])) return false;
  return true;
}

}  // namespace

std::uint64_t RequiredPresence(const Pattern& p) {
  std::uint64_t need = 0;
  for (const Condition& c : p.conditions)
    if (!c.allow_absent) need |= std::uint64_t{1} << static_cast<int>(c.field);
  return need;
}

std::vector<KeyTerm> KeyTerms(const Pattern& p) {
  std::vector<KeyTerm> terms;
  for (const Condition& c : p.conditions) {
    if (c.op == CmpOp::kEq && c.rhs.kind == Term::Kind::kVar &&
        c.mask == ~std::uint64_t{0} && !c.allow_absent)
      terms.push_back(KeyTerm{c.field, c.rhs.var});
  }
  // Insertion sort: stable, and allocation-free on these few-term lists.
  for (std::size_t i = 1; i < terms.size(); ++i)
    for (std::size_t j = i; j > 0 && terms[j].var < terms[j - 1].var; --j)
      std::swap(terms[j], terms[j - 1]);
  return terms;
}

StageAbortPlan PlanAborts(const Stage& st, const std::vector<KeyTerm>& link,
                          bool indexed) {
  StageAbortPlan plan;
  plan.aborts.reserve(st.aborts.size());
  for (const Pattern& a : st.aborts) {
    AbortPlan ap;
    ap.need = RequiredPresence(a);
    for (const Condition& c : a.conditions)
      if (c.rhs.kind == Term::Kind::kConst) ap.consts.push_back(c);
    const std::vector<KeyTerm> terms = KeyTerms(a);
    if (indexed && !terms.empty()) {
      if (!link.empty() && SameVars(terms, link)) {
        ap.index = kLinkIndex;
      } else {
        const auto it = std::find_if(plan.extra.begin(), plan.extra.end(),
                                     [&](const std::vector<VarId>& vars) {
                                       return SameVars(terms, vars);
                                     });
        ap.index = kFirstExtraIndex + static_cast<int>(it - plan.extra.begin());
        if (it == plan.extra.end()) {
          std::vector<VarId>& vars = plan.extra.emplace_back();
          for (const KeyTerm& t : terms) vars.push_back(t.var);
        }
      }
      for (const KeyTerm& t : terms) ap.probe.push_back(t.field);
    }
    plan.aborts.push_back(std::move(ap));
  }
  return plan;
}

}  // namespace swmon
