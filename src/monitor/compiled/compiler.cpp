// Lowering from the Property spec tree to the flat bytecode Program.
//
// The compiler is deliberately boring: every choice that affects runtime
// observable behaviour (link-key selection, bind validation order,
// stage-0 key composition) replicates monitor/engine.cpp exactly — the
// differential harness holds the two engines to bit-identical violation
// streams, so any cleverness here must be invisible.

#include <cstdio>
#include <string>

#include "common/assert.hpp"
#include "monitor/compiled/bytecode.hpp"
#include "monitor/features.hpp"

namespace swmon::compiled {

namespace {

Instr LowerCondition(const Condition& c) {
  Instr i{};
  const bool var_rhs = c.rhs.kind == Term::Kind::kVar;
  if (c.op == CmpOp::kEq)
    i.op = var_rhs ? Op::kCondVarEq : Op::kCondConstEq;
  else
    i.op = var_rhs ? Op::kCondVarNe : Op::kCondConstNe;
  i.field = static_cast<std::uint16_t>(c.field);
  i.var = c.rhs.var;
  i.mask = c.mask;
  i.imm = c.rhs.constant;
  if (c.allow_absent) i.flags |= kFlagAllowAbsent;
  return i;
}

PatternCode EmitPattern(const Pattern& p, Program& prog) {
  PatternCode pc;
  pc.event_type =
      p.event_type ? static_cast<std::int8_t>(*p.event_type) : std::int8_t{-1};
  pc.begin = static_cast<std::uint32_t>(prog.code.size());
  for (const Condition& c : p.conditions) prog.code.push_back(LowerCondition(c));
  if (!p.forbidden.empty()) {
    Instr f{};
    f.op = Op::kForbidden;
    f.aux = static_cast<std::uint32_t>(p.forbidden.size());
    prog.code.push_back(f);
    for (const Condition& c : p.forbidden)
      prog.code.push_back(LowerCondition(c));
  }
  Instr m{};
  m.op = Op::kMatch;
  prog.code.push_back(m);
  return pc;
}

void EmitRequire(FieldId field, Program& prog) {
  Instr r{};
  r.op = Op::kRequireField;
  r.field = static_cast<std::uint16_t>(field);
  prog.code.push_back(r);
}

/// Validate-then-mutate, mirroring MonitorEngine::ApplyBindings: every
/// presence check precedes every mutation, so a failed bind run leaves the
/// environment (and the round-robin counter) untouched.
std::uint32_t EmitBindRun(const Stage& st, Program& prog) {
  const auto begin = static_cast<std::uint32_t>(prog.code.size());
  for (const Binding& b : st.bindings) {
    if (b.kind == Binding::Kind::kField) EmitRequire(b.field, prog);
    if (b.kind == Binding::Kind::kHashPort)
      for (FieldId f : b.hash_inputs) EmitRequire(f, prog);
  }
  if (st.window_from_field) EmitRequire(*st.window_from_field, prog);

  for (const Binding& b : st.bindings) {
    Instr i{};
    i.var = b.var;
    i.modulus = b.modulus;
    i.base = b.base;
    switch (b.kind) {
      case Binding::Kind::kField:
        i.op = Op::kBindField;
        i.field = static_cast<std::uint16_t>(b.field);
        break;
      case Binding::Kind::kHashPort:
        i.op = Op::kBindHash;
        i.aux = static_cast<std::uint32_t>(b.hash_inputs.size());
        i.aux_pos = static_cast<std::uint32_t>(prog.aux_fields.size());
        for (FieldId f : b.hash_inputs)
          prog.aux_fields.push_back(static_cast<std::uint16_t>(f));
        break;
      case Binding::Kind::kRoundRobin:
        i.op = Op::kBindRoundRobin;
        break;
    }
    prog.code.push_back(i);
  }
  Instr e{};
  e.op = Op::kBindEnd;
  prog.code.push_back(e);
  return begin;
}

std::uint32_t EmitKeyFields(const std::vector<FieldId>& fields, Program& prog) {
  const auto begin = static_cast<std::uint32_t>(prog.key_fields.size());
  for (FieldId f : fields)
    prog.key_fields.push_back(static_cast<std::uint16_t>(f));
  return begin;
}

bool TypeCompatible(const PatternCode& pc, std::size_t type) {
  return pc.event_type < 0 ||
         static_cast<std::size_t>(pc.event_type) == type;
}

}  // namespace

bool Lowerable(const Property& property) {
  return property.num_stages() <= 64 && property.num_vars() <= 64;
}

std::optional<Program> CompileProperty(const Property& property) {
  if (!Lowerable(property)) return std::nullopt;

  Program prog;
  prog.name = property.name;
  prog.vars = property.vars;
  prog.interest = InterestSignature(property);

  for (std::size_t k = 0; k < property.num_stages(); ++k) {
    const Stage& st = property.stages[k];
    StageCode sc;
    sc.kind = st.kind;
    sc.label = st.label;
    sc.min_count = st.min_count;
    sc.refresh_on_rematch = st.refresh_window_on_rematch;
    sc.window_ns = st.window.nanos();
    sc.window_field =
        st.window_from_field
            ? static_cast<std::int16_t>(*st.window_from_field)
            : std::int16_t{-1};
    if (st.kind == StageKind::kEvent) {
      sc.pattern = EmitPattern(st.pattern, prog);
      sc.need = RequiredPresence(st.pattern);
    }
    sc.bind_begin = EmitBindRun(st, prog);
    sc.has_bindings = !st.bindings.empty();

    // Link-key selection and the abort plan, identical to the
    // MonitorEngine constructor (both come from monitor/abort_index).
    std::vector<KeyTerm> link;
    if (k >= 1 && st.kind == StageKind::kEvent) link = KeyTerms(st.pattern);
    sc.link_begin = static_cast<std::uint32_t>(prog.links.size());
    sc.link_count = static_cast<std::uint32_t>(link.size());
    for (const KeyTerm& t : link)
      prog.links.push_back(
          LinkTerm{static_cast<std::uint16_t>(t.field), t.var});
    const StageAbortPlan plan = PlanAborts(st, link, /*indexed=*/true);
    for (const std::vector<VarId>& vars : plan.extra) {
      sc.extra_indexes.push_back(
          Slice{static_cast<std::uint32_t>(prog.index_vars.size()),
                static_cast<std::uint32_t>(vars.size())});
      prog.index_vars.insert(prog.index_vars.end(), vars.begin(), vars.end());
    }
    for (std::size_t j = 0; j < st.aborts.size(); ++j) {
      const AbortPlan& ap = plan.aborts[j];
      AbortCode ac;
      ac.pattern = EmitPattern(st.aborts[j], prog);
      ac.need = ap.need;
      if (!ap.consts.empty()) {
        ac.prefilter = static_cast<std::uint32_t>(prog.code.size());
        for (const Condition& c : ap.consts)
          prog.code.push_back(LowerCondition(c));
        Instr m{};
        m.op = Op::kMatch;
        prog.code.push_back(m);
      }
      ac.index = ap.index;
      ac.probe = Slice{EmitKeyFields(ap.probe, prog),
                       static_cast<std::uint32_t>(ap.probe.size())};
      sc.aborts.push_back(ac);
    }
    prog.stages.push_back(std::move(sc));
  }

  for (const Binding& b : property.stages[0].bindings)
    prog.stage0_vars.push_back(b.var);

  for (const Suppressor& sup : property.suppressors) {
    SuppressorCode sc;
    sc.pattern = EmitPattern(sup.pattern, prog);
    sc.key_begin = EmitKeyFields(sup.key_fields, prog);
    sc.key_count = static_cast<std::uint32_t>(sup.key_fields.size());
    prog.suppressors.push_back(sc);
  }
  prog.suppression_key_begin =
      EmitKeyFields(property.suppression_key_fields, prog);
  prog.suppression_key_count =
      static_cast<std::uint32_t>(property.suppression_key_fields.size());

  // Per-event-type pass-skip masks (the interpreter's per-stage type
  // prefilters, hoisted to one AND per ProcessEvent).
  for (std::size_t t = 0; t < kNumDataplaneEventTypes; ++t) {
    for (std::size_t k = 1; k < prog.stages.size(); ++k) {
      const StageCode& sc = prog.stages[k];
      if (sc.kind == StageKind::kEvent && TypeCompatible(sc.pattern, t))
        prog.advance_stage_mask[t] |= std::uint64_t{1} << k;
      for (const AbortCode& a : sc.aborts) {
        if (TypeCompatible(a.pattern, t)) {
          prog.abort_stage_mask[t] |= std::uint64_t{1} << k;
          break;
        }
      }
    }
  }
  return prog;
}

std::string Disassemble(const Program& program) {
  std::string out = "program " + program.name +
                    " vars=" + std::to_string(program.vars.size()) + "\n";
  for (std::size_t k = 0; k < program.stages.size(); ++k) {
    const StageCode& st = program.stages[k];
    out += "stage " + std::to_string(k) + " \"" + st.label + "\" pattern@" +
           std::to_string(st.pattern.begin) + " bind@" +
           std::to_string(st.bind_begin) + "\n";
    for (std::size_t j = 0; j < st.aborts.size(); ++j) {
      const AbortCode& a = st.aborts[j];
      out += "  abort " + std::to_string(j) + " @" +
             std::to_string(a.pattern.begin) + ": ";
      if (a.index == kAbortWalk) {
        out += "scan (no keyable EqVar)";
      } else {
        // The key tuple in the index's var order, each var with the event
        // field the probe projects into it.
        const auto key_var = [&](std::uint32_t i) -> std::uint16_t {
          if (a.index == kLinkIndex)
            return program.links[st.link_begin + i].var;
          return program.index_vars
              [st.extra_indexes[a.index - kFirstExtraIndex].begin + i];
        };
        out += "key (";
        for (std::uint32_t i = 0; i < a.probe.count; ++i) {
          if (i) out += ",";
          out += program.vars[key_var(i)] + "=f" +
                 std::to_string(program.key_fields[a.probe.begin + i]);
        }
        out += a.index == kLinkIndex
                   ? ") via link index"
                   : ") via abort index " +
                         std::to_string(a.index - kFirstExtraIndex);
      }
      char need[32];
      std::snprintf(need, sizeof(need), " need=0x%llx",
                    static_cast<unsigned long long>(a.need));
      out += need;
      out += a.prefilter == AbortCode::kNoPrefilter
                 ? " prefilter=none"
                 : " prefilter@" + std::to_string(a.prefilter);
      out += '\n';
    }
  }
  const auto line = [&](std::size_t pc, const std::string& text) {
    out += std::to_string(pc);
    out += ":\t";
    out += text;
    out += '\n';
  };
  for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
    const Instr& i = program.code[pc];
    const std::string field = "f" + std::to_string(i.field);
    const std::string var = "$" + std::to_string(i.var);
    const std::string absent =
        (i.flags & kFlagAllowAbsent) ? " allow_absent" : "";
    switch (i.op) {
      case Op::kCondConstEq:
        line(pc, "cond " + field + " == " + std::to_string(i.imm) + absent);
        break;
      case Op::kCondConstNe:
        line(pc, "cond " + field + " != " + std::to_string(i.imm) + absent);
        break;
      case Op::kCondVarEq:
        line(pc, "cond " + field + " == " + var + absent);
        break;
      case Op::kCondVarNe:
        line(pc, "cond " + field + " != " + var + absent);
        break;
      case Op::kForbidden:
        line(pc, "forbidden n=" + std::to_string(i.aux));
        break;
      case Op::kMatch:
        line(pc, "match");
        break;
      case Op::kRequireField:
        line(pc, "require " + field);
        break;
      case Op::kBindField:
        line(pc, "bind " + var + " = " + field);
        break;
      case Op::kBindHash:
        line(pc, "bind " + var + " = hash(" + std::to_string(i.aux) +
                     " fields) % " + std::to_string(i.modulus) + " + " +
                     std::to_string(i.base));
        break;
      case Op::kBindRoundRobin:
        line(pc, "bind " + var + " = rr % " + std::to_string(i.modulus) +
                     " + " + std::to_string(i.base));
        break;
      case Op::kBindEnd:
        line(pc, "bind_end");
        break;
    }
  }
  return out;
}

}  // namespace swmon::compiled
