#ifndef LEARNEDSQLGEN_ANALYSIS_STATE_KEY_H_
#define LEARNEDSQLGEN_ANALYSIS_STATE_KEY_H_

#include <string>

#include "fsm/generation_fsm.h"
#include "sql/ast_builder.h"

namespace lsg {

/// Canonical abstract-state signature of a partially built query.
///
/// Two generator states with equal keys are bisimilar w.r.t. the FSM's
/// masks: `GenerationFsm::ValidActions()` reads only (a) the token count
/// compared against the profile budget, (b) each `BuildFrame`'s phase,
/// purpose, scope tables and pending_* fields, and (c) coarse summaries of
/// the partial AST (select-item mix and plain-column set, predicate count,
/// HAVING head, ORDER BY emptiness, DML target/progress) — never literal
/// values inside predicates. The key serialises exactly those observables:
///
///  - token count saturated at `profile.max_tokens` (both budget flags are
///    constant beyond it),
///  - per frame: purpose, phase, scope_tables, pending agg/column/op/negated,
///    outer_lhs, pinned_table/insert_next_col, sorted groupby_remaining and
///    orderby_candidates,
///  - per frame query: sorted unique plain-item columns, plain/aggregate item
///    counts, WHERE predicate count, HAVING (agg, column) when present,
///    ORDER BY emptiness, and (under require_nested) a has-nested bit,
///  - DML summaries: INSERT target + values consumed + source bit, UPDATE
///    target + SET column, DELETE target.
///
/// This makes exhaustive exploration tractable: the analyzer explores one
/// representative per key and the bisimulation guarantees every merged
/// state offers the same masks forever after.
std::string AbstractStateKey(const AstBuilder& builder,
                             const QueryProfile& profile);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_ANALYSIS_STATE_KEY_H_
