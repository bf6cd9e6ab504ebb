#include "analysis/state_key.h"

#include <algorithm>
#include <vector>

namespace lsg {

namespace {

void AppendInt(std::string* out, long long v) {
  out->append(std::to_string(v));
  out->push_back(',');
}

void AppendColumn(std::string* out, const ColumnRef& c) {
  AppendInt(out, c.table_idx);
  AppendInt(out, c.column_idx);
}

void AppendSortedColumns(std::string* out, std::vector<ColumnRef> cols) {
  std::sort(cols.begin(), cols.end(), [](const ColumnRef& a,
                                         const ColumnRef& b) {
    return a.table_idx != b.table_idx ? a.table_idx < b.table_idx
                                      : a.column_idx < b.column_idx;
  });
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  out->push_back('[');
  for (const ColumnRef& c : cols) AppendColumn(out, c);
  out->push_back(']');
}

/// True in the phases where the masks (or the transition into the next
/// mask-relevant state) read f.pending_column. Outside these phases the
/// field holds a stale value from the previous predicate, and keying on it
/// would split bisimilar states.
bool PendingColumnLive(BuildPhase p) {
  return p == BuildPhase::kWhereOp || p == BuildPhase::kWhereRhs ||
         p == BuildPhase::kWhereLikeRhs || p == BuildPhase::kInOpen;
}

/// The WHERE machinery: the only phases whose masks read the predicate
/// count (AND gating against max_predicates) or, under require_nested, the
/// query's HasNested bit (EOF / GROUP BY / ORDER BY gating at
/// kAfterPredicate). Once the clause is left neither is ever read again —
/// there is no way back into WHERE — so keying them later would multiply
/// bisimilar tails.
bool InWhereClause(BuildPhase p) {
  return p == BuildPhase::kWherePred || p == BuildPhase::kAfterNot ||
         p == BuildPhase::kExistsOpen || p == BuildPhase::kWhereOp ||
         p == BuildPhase::kWhereRhs || p == BuildPhase::kWhereLikeRhs ||
         p == BuildPhase::kInOpen || p == BuildPhase::kAfterPredicate;
}

}  // namespace

std::string AbstractStateKey(const AstBuilder& builder,
                             const QueryProfile& profile) {
  if (builder.done()) return "DONE";
  std::string k;
  k.reserve(96);

  // The masks read the token count only through the two budget thresholds
  // (BudgetTight, subquery-tight), i.e. through the remaining slack. Slack
  // above 256 cannot reach the thresholds within any structurally bounded
  // episode (the longest clamped episode is far shorter), so all such
  // states are budget-equivalent and the counter drops out of the key.
  const int slack =
      profile.max_tokens - static_cast<int>(builder.tokens().size());
  AppendInt(&k, std::max(0, std::min(slack, 256)));

  const QueryAst& ast = builder.ast();
  AppendInt(&k, static_cast<int>(ast.type));
  if (ast.insert != nullptr) {
    k.push_back('I');
    AppendInt(&k, ast.insert->table_idx);
    AppendInt(&k, static_cast<long long>(ast.insert->values.size()));
    AppendInt(&k, ast.insert->source != nullptr ? 1 : 0);
  }
  if (ast.update != nullptr) {
    k.push_back('U');
    AppendInt(&k, ast.update->table_idx);
    // SET column identity only matters while its value is being chosen.
    if (builder.phase() == BuildPhase::kUpdateSetValue) {
      AppendColumn(&k, ast.update->set_column);
    }
  }
  if (ast.del != nullptr) {
    k.push_back('D');
    AppendInt(&k, ast.del->table_idx);
  }

  const std::vector<BuildFrame>& frames = builder.frames();
  for (size_t fi = 0; fi < frames.size(); ++fi) {
    const BuildFrame& f = frames[fi];
    k.push_back('|');
    AppendInt(&k, static_cast<int>(f.purpose));
    AppendInt(&k, static_cast<int>(f.phase));
    // The masks read scope_tables purely as a set (membership tests, size,
    // and unordered iteration into a bitmap), so join order drops out of
    // the key. The real AST keeps the concrete order and the per-offer
    // kJoinTable check validates every extension against the whole set,
    // which equals "some earlier table" for any interleaving.
    k.push_back('s');
    std::vector<int> scope = f.scope_tables;
    std::sort(scope.begin(), scope.end());
    for (int t : scope) AppendInt(&k, t);

    // Pending pieces are keyed only while live (see MaskSelectFrame): a
    // consumed predicate leaves stale pending_* values behind that no mask
    // ever reads again, and a parent frame's pending lhs is frozen while a
    // subquery frame is active (the only part an inner mask reads is
    // mirrored into the subquery frame's own outer_lhs). pending_op /
    // pending_negated are never read by any mask at all (they only shape
    // the AST, which the accept-time lint and the per-state mask checks
    // already cover), so they are never keyed.
    const bool innermost = fi + 1 == frames.size();
    if (innermost && f.phase == BuildPhase::kAggColumn) {
      AppendInt(&k, static_cast<int>(f.pending_agg));
    }
    if (innermost && PendingColumnLive(f.phase)) {
      AppendColumn(&k, f.pending_column);
    }
    if (f.purpose == FramePurpose::kInSub) AppendColumn(&k, f.outer_lhs);
    if (f.purpose == FramePurpose::kInsertSource) {
      AppendInt(&k, f.pinned_table);
      AppendInt(&k, f.insert_next_col);
    }
    if (f.phase == BuildPhase::kGroupByColumn ||
        f.phase == BuildPhase::kAfterGroupBy) {
      AppendSortedColumns(&k, f.groupby_remaining);
    }
    if (f.phase == BuildPhase::kOrderByColumn ||
        f.phase == BuildPhase::kAfterOrderBy) {
      AppendSortedColumns(&k, f.orderby_candidates);
    }

    if (f.where != nullptr && InWhereClause(f.phase)) {
      k.push_back('w');
      AppendInt(&k, static_cast<long long>(f.where->predicates.size()));
    }
    if (f.query != nullptr) {
      const SelectQuery& q = *f.query;
      k.push_back('q');
      std::vector<ColumnRef> plain;
      int n_plain = 0, n_agg = 0;
      for (const SelectItem& it : q.items) {
        if (it.agg == AggFunc::kNone) {
          ++n_plain;
          plain.push_back(it.column);
        } else {
          ++n_agg;
        }
      }
      AppendInt(&k, n_plain);
      AppendInt(&k, n_agg);
      // Plain-item identities only steer GROUP BY / ORDER BY entry, which
      // exists solely in the outermost frame; subquery frames key on the
      // counts alone.
      if (fi == 0 && f.purpose == FramePurpose::kTopLevel) {
        AppendSortedColumns(&k, std::move(plain));
        // The HAVING column is read by the masks from the moment it is
        // chosen (operator typing at kHavingOp, value ownership at
        // kHavingValue) and never after kAfterHaving.
        if (q.having.has_value() &&
            (f.phase == BuildPhase::kHavingOp ||
             f.phase == BuildPhase::kHavingValue)) {
          k.push_back('h');
          AppendColumn(&k, q.having->column);
        }
        AppendInt(&k, q.order_by.empty() ? 0 : 1);
        // Only require_nested makes the masks read HasNested(), and only
        // while a WHERE clause can still be entered or extended; keying it
        // elsewhere would split states for no observable change.
        if (profile.require_nested &&
            (f.phase == BuildPhase::kSelectItem ||
             f.phase == BuildPhase::kAfterSelectItem ||
             InWhereClause(f.phase))) {
          AppendInt(&k, q.HasNested() ? 1 : 0);
        }
      }
    }
  }
  return k;
}

}  // namespace lsg
