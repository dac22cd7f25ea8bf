// Flat bytecode form of a Property, produced ahead of time by
// CompileProperty and executed by CompiledEngine.
//
// The lowering flattens every pattern (stage, abort, suppressor) into one
// contiguous instruction array — straight-line condition runs terminated
// by kMatch — and every stage's bindings into a validate-then-mutate run
// terminated by kBindEnd, so the hot path is a single indexed walk over
// `code` with no pointer chasing through the spec tree, no virtual
// dispatch, and no per-event heap traffic. Side tables (hash-input field
// pools, link terms, key-field pools) are slices into shared flat vectors
// addressed by (begin, count) pairs baked into the instructions and stage
// records.
//
// Pattern run layout (entry point PatternCode::begin):
//   kCond*...                 required conditions, any failure = no match
//   [kForbidden(aux=n) kCond*^n]   optional tuple-negation group: if all n
//                             forbidden conditions hold the pattern does
//                             NOT match (Feature 6 at tuple level)
//   kMatch                    pattern matched
//
// Bind run layout (entry point StageCode::bind_begin):
//   kRequireField...          presence checks for every field the stage's
//                             bindings (and window_from_field) consume —
//                             all validated before any mutation, so a
//                             failed bind never half-updates the env and
//                             never consumes a round-robin slot
//   kBindField | kBindHash | kBindRoundRobin ...
//   kBindEnd
//
// The program also precomputes, per DataplaneEventType, a bitmask of
// stages whose advance/abort patterns can react to that type, so
// ProcessEvent skips entire passes with one AND (this caps compilable
// properties at 64 stages; CreatePropertyMonitor falls back to the
// interpreter beyond that, and for >64 variables — the packed state
// record tracks boundness in one u64).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/switch.hpp"
#include "monitor/abort_index.hpp"
#include "monitor/spec.hpp"

namespace swmon::compiled {

enum class Op : std::uint8_t {
  kCondConstEq,    // field ==/mask imm
  kCondConstNe,    // field !=/mask imm
  kCondVarEq,      // field ==/mask env[var]
  kCondVarNe,      // field !=/mask env[var]
  kForbidden,      // next `aux` conditions form the negated tuple
  kMatch,          // pattern end
  kRequireField,   // bind-run presence check
  kBindField,      // env[var] = event.field
  kBindHash,       // env[var] = FNV(aux_fields[aux_pos..+aux]) % modulus + base
  kBindRoundRobin, // env[var] = rr_counter++ % modulus + base
  kBindEnd,        // bind run end
};

/// Instr::flags bit: condition holds when the event lacks the field.
inline constexpr std::uint8_t kFlagAllowAbsent = 1;

struct Instr {
  Op op;
  std::uint8_t flags = 0;
  std::uint16_t field = 0;    // FieldId operand
  std::uint16_t var = 0;      // env slot (rhs var / bind target)
  std::uint32_t aux = 0;      // forbidden-run length / hash-input count
  std::uint32_t aux_pos = 0;  // slice start in Program::aux_fields
  std::uint32_t modulus = 1;
  std::uint32_t base = 0;
  std::uint64_t mask = ~std::uint64_t{0};
  std::uint64_t imm = 0;      // constant rhs
};
// aux is 32 bits so no forbidden group or hash binding an SPL spec can
// carry wraps; it sits in what would otherwise be padding, so an
// instruction stays 40 bytes.
static_assert(sizeof(Instr) == 40);

/// Entry point of one flattened pattern.
struct PatternCode {
  std::int8_t event_type = -1;  // -1 = any type; else DataplaneEventType
  std::uint32_t begin = 0;      // index into Program::code
};

/// field == $var link term; the slice [link_begin, link_begin+link_count)
/// of Program::links is a stage's keyed-store key, mirroring the
/// interpreter's StageStore::link (KeyTerms: full-width, non-allow_absent
/// equality conditions only, in var-id order).
struct LinkTerm {
  std::uint16_t field;
  std::uint16_t var;
};

/// A (begin, count) slice of one of Program's flat pools.
struct Slice {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
};

/// One abort pattern with its prefilter and probe (monitor/abort_index.hpp;
/// DESIGN.md 5m).
struct AbortCode {
  static constexpr std::uint32_t kNoPrefilter = 0xffffffffu;
  PatternCode pattern;
  /// Required-presence mask: an event missing one of these fields fails
  /// the abort for every instance.
  std::uint64_t need = 0;
  /// pc of a run of the abort's constant conditions (ends in kMatch), or
  /// kNoPrefilter when it has none. Executes with an empty environment.
  std::uint32_t prefilter = kNoPrefilter;
  /// kLinkIndex, kFirstExtraIndex + i (StageCode::extra_indexes[i]), or
  /// kAbortWalk for the stage-wide walk.
  std::int32_t index = kAbortWalk;
  Slice probe;  // event fields, in the index's var order (key_fields pool)
};

struct StageCode {
  StageKind kind = StageKind::kEvent;
  PatternCode pattern;              // kEvent stages
  std::uint64_t need = 0;           // RequiredPresence(pattern)
  std::uint32_t bind_begin = 0;
  bool has_bindings = false;        // stage can rebind env (re-key path)
  std::vector<AbortCode> aborts;
  /// Var lists (slices of Program::index_vars) of the abort-only indexes.
  std::vector<Slice> extra_indexes;
  std::uint32_t link_begin = 0;
  std::uint32_t link_count = 0;
  std::int64_t window_ns = 0;       // 0 = unbounded
  std::int16_t window_field = -1;   // FieldId overriding window_ns, -1 = none
  bool refresh_on_rematch = false;  // stage 0 only
  std::uint32_t min_count = 1;
  std::string label;
};

struct SuppressorCode {
  PatternCode pattern;
  std::uint32_t key_begin = 0;  // slice of Program::key_fields
  std::uint32_t key_count = 0;
};

struct Program {
  std::string name;
  std::vector<std::string> vars;  // VarId indexes this; names for reporting

  std::vector<Instr> code;
  std::vector<std::uint16_t> aux_fields;  // kBindHash input-field pool
  std::vector<StageCode> stages;
  std::vector<LinkTerm> links;
  /// Variables stage 0 binds, in binding order: the dedup/refresh key.
  std::vector<std::uint16_t> stage0_vars;

  /// Abort-only index var lists (StageCode::extra_indexes slices).
  std::vector<std::uint16_t> index_vars;

  std::vector<SuppressorCode> suppressors;
  /// Suppression-key and abort-probe field pool.
  std::vector<std::uint16_t> key_fields;
  std::uint32_t suppression_key_begin = 0;
  std::uint32_t suppression_key_count = 0;

  EventTypeMask interest = 0;
  /// Bit k set when stage k's advance pattern / any abort pattern can
  /// react to the event type — the per-event pass-skip masks.
  std::uint64_t advance_stage_mask[kNumDataplaneEventTypes] = {};
  std::uint64_t abort_stage_mask[kNumDataplaneEventTypes] = {};

  std::size_t num_vars() const { return vars.size(); }
  std::size_t num_stages() const { return stages.size(); }
};

/// True when the compiled representation can hold `property`: at most 64
/// stages and 64 variables (the per-type stage masks and the packed
/// record's boundness word). ResolveEngineKind's fallback rule, so the
/// factory and the compiler cannot disagree.
bool Lowerable(const Property& property);

/// Lowers a validated Property; nullopt exactly when !Lowerable(property).
std::optional<Program> CompileProperty(const Property& property);

/// Human-readable listing (one instruction per line, plus one line per
/// abort naming its index key or `scan (no keyable EqVar)` and its
/// prefilter mask) for debugging differential failures; format is stable
/// enough for docs, not parsing.
std::string Disassemble(const Program& program);

}  // namespace swmon::compiled
