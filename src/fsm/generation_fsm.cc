#include "fsm/generation_fsm.h"

#include <algorithm>

#include "common/logging.h"
#include "fsm/semantic_rules.h"
#include "obs/metrics_registry.h"

namespace lsg {

QueryProfile QueryProfile::SpjOnly() {
  QueryProfile p;
  p.allow_aggregate = false;
  p.allow_group_by = false;
  p.allow_nested = false;
  p.allow_exists = false;
  p.allow_like = false;
  p.allow_order_by = false;
  return p;
}

QueryProfile QueryProfile::Full() {
  QueryProfile p;
  p.allow_insert = true;
  p.allow_update = true;
  p.allow_delete = true;
  return p;
}

QueryProfile QueryProfile::InsertOnly() {
  QueryProfile p;
  p.allow_select = false;
  p.allow_insert = true;
  return p;
}

QueryProfile QueryProfile::UpdateOnly() {
  QueryProfile p;
  p.allow_select = false;
  p.allow_update = true;
  return p;
}

QueryProfile QueryProfile::DeleteOnly() {
  QueryProfile p;
  p.allow_select = false;
  p.allow_delete = true;
  return p;
}

GenerationFsm::GenerationFsm(const Database* db, const Vocabulary* vocab,
                             QueryProfile profile)
    : db_(db),
      vocab_(vocab),
      profile_(profile),
      builder_(&db->catalog()),
      mask_{std::vector<uint8_t>(vocab->size(), 0), {}} {
  LSG_CHECK(db != nullptr && vocab != nullptr);
  LSG_CHECK(profile.allow_select || profile.allow_insert ||
            profile.allow_update || profile.allow_delete);
}

void GenerationFsm::Reset() {
  builder_ = AstBuilder(&db_->catalog());
  // Telemetry must not leak the previous episode's width into an episode
  // that terminates before its first ValidActions() call.
  last_mask_width_ = 0;
}

bool GenerationFsm::ColumnHasValues(const ColumnRef& col) const {
  return !vocab_->value_token_ids(col.table_idx, col.column_idx).empty();
}

bool GenerationFsm::BudgetTight() const {
  return static_cast<int>(builder_.tokens().size()) >= profile_.max_tokens;
}

bool GenerationFsm::SubqueryTight() const {
  return static_cast<int>(builder_.tokens().size()) + 9 > profile_.max_tokens;
}

int GenerationFsm::ItemMix(const SelectQuery& q) const {
  bool plain = false, agg = false;
  for (const SelectItem& it : q.items) {
    (it.agg == AggFunc::kNone ? plain : agg) = true;
  }
  if (plain && agg) return 3;
  if (agg) return 2;
  if (plain) return 1;
  return 0;
}

namespace {

/// Rhs options for a predicate on `col`.
struct RhsOptions {
  bool has_values = false;
  bool can_scalar = false;
  bool can_in = false;
  bool can_like = false;
  bool any() const { return has_values || can_scalar || can_in || can_like; }
};

}  // namespace

const ActionMask& GenerationFsm::ValidActions() {
  // Only the previous call's ids are set, so clearing them clears the mask.
  for (int id : mask_.ids) mask_.bytes[id] = 0;
  mask_.ids.clear();
  if (builder_.done()) return mask_;
  const BuildFrame& f = builder_.frame();
  switch (f.phase) {
    case BuildPhase::kStart:
      MaskStart(builder_.depth() > 1);
      break;
    case BuildPhase::kInsertTable:
    case BuildPhase::kAfterInsertTable:
    case BuildPhase::kInsertValue:
    case BuildPhase::kInsertDone:
      MaskInsert();
      break;
    case BuildPhase::kUpdateTable:
    case BuildPhase::kUpdateSetKw:
    case BuildPhase::kUpdateSetColumn:
    case BuildPhase::kUpdateSetValue:
    case BuildPhase::kUpdateAfterSet:
      MaskUpdate();
      break;
    case BuildPhase::kDeleteTable:
    case BuildPhase::kDeleteAfterTable:
      MaskDelete();
      break;
    case BuildPhase::kDone:
      break;
    default:
      MaskSelectFrame();
      break;
  }
  // The mask rules allow ids in grammar order; the list is kept ascending.
  std::sort(mask_.ids.begin(), mask_.ids.end());
  if (obs::Enabled()) {
    // Mask pressure: how many actions the FSM leaves open per decision.
    const uint64_t width = mask_.ids.size();
    last_mask_width_ = static_cast<int>(width);
    static obs::Counter& evals =
        obs::MetricsRegistry::Global().GetCounter("fsm.mask_evals");
    static obs::Counter& width_sum =
        obs::MetricsRegistry::Global().GetCounter("fsm.mask_width_sum");
    evals.Inc();
    width_sum.Add(width);
  }
  return mask_;
}

void GenerationFsm::MaskStart(bool sub) {
  if (sub) {
    AllowKeyword(Keyword::kFrom);
    return;
  }
  const Catalog& cat = db_->catalog();
  if (profile_.allow_select) AllowKeyword(Keyword::kFrom);
  // Any table takes an INSERT: the INSERT..SELECT form needs no sampled
  // values.
  if (profile_.allow_insert && cat.num_tables() > 0) {
    AllowKeyword(Keyword::kInsert);
  }
  if (profile_.allow_update) {
    for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
      const TableSchema& ts = cat.table(ti);
      for (size_t ci = 0; ci < ts.num_columns(); ++ci) {
        if (!ts.column(ci).is_primary_key &&
            !vocab_->value_token_ids(static_cast<int>(ti),
                                     static_cast<int>(ci)).empty()) {
          AllowKeyword(Keyword::kUpdate);
          ti = cat.num_tables();
          break;
        }
      }
    }
  }
  if (profile_.allow_delete && cat.num_tables() > 0) {
    AllowKeyword(Keyword::kDelete);
  }
}

void GenerationFsm::MaskSelectFrame() {
  const BuildFrame& f = builder_.frame();
  const Catalog& cat = db_->catalog();
  const bool top = builder_.depth() == 1;
  const bool tight = BudgetTight();
  const int depth_above_top = builder_.depth() - 1;

  // A subquery's forced completion is ~8 tokens ('(' FROM t SELECT x ')'
  // plus closing the predicate), so its entry is masked once fewer than
  // that many tokens remain in the budget.
  const bool subquery_tight = SubqueryTight();

  // Computes rhs options for a WHERE lhs column in this frame.
  const bool force_nested_here = profile_.require_nested &&
                                 profile_.allow_nested &&
                                 builder_.depth() == 1 && !subquery_tight;

  auto rhs_options = [&](const ColumnRef& col) {
    RhsOptions o;
    o.has_values = !force_nested_here && ColumnHasValues(col);
    o.can_like = !force_nested_here && profile_.allow_like &&
                 !vocab_->pattern_token_ids(col.table_idx, col.column_idx)
                      .empty();
    DataType type = cat.table(col.table_idx).column(col.column_idx).type;
    const bool depth_ok = depth_above_top < profile_.max_nesting_depth;
    if (!subquery_tight && profile_.allow_nested && depth_ok &&
        IsNumeric(type)) {
      o.can_scalar = true;
    }
    if (!subquery_tight && profile_.allow_nested && depth_ok) {
      // IN needs some table holding a comparable column.
      for (size_t ti = 0; ti < cat.num_tables() && !o.can_in; ++ti) {
        for (size_t ci = 0; ci < cat.table(ti).num_columns(); ++ci) {
          if (AreComparable(type, cat.table(ti).column(ci).type)) {
            o.can_in = true;
            break;
          }
        }
      }
    }
    return o;
  };

  // All columns belonging to the frame's in-scope tables.
  auto for_each_scope_column = [&](auto&& fn) {
    for (int ti : f.scope_tables) {
      for (size_t ci = 0; ci < cat.table(ti).num_columns(); ++ci) {
        fn(ColumnRef{ti, static_cast<int>(ci)});
      }
    }
  };

  // A table outside the scope with a PK-FK edge to some scope table.
  auto joins_into_scope = [&](int t) {
    if (std::find(f.scope_tables.begin(), f.scope_tables.end(), t) !=
        f.scope_tables.end()) {
      return false;
    }
    for (int prev : f.scope_tables) {
      if (cat.AreJoinable(prev, t)) return true;
    }
    return false;
  };

  auto scope_has_numeric = [&]() {
    for (int ti : f.scope_tables) {
      if (TableHasNumericColumn(cat.table(ti))) return true;
    }
    return false;
  };

  auto scope_has_numeric_with_values = [&]() {
    bool found = false;
    for_each_scope_column([&](const ColumnRef& c) {
      if (found) return;
      if (IsNumeric(cat.table(c.table_idx).column(c.column_idx).type) &&
          ColumnHasValues(c)) {
        found = true;
      }
    });
    return found;
  };

  auto can_order_by = [&]() {
    if (!profile_.allow_order_by || tight) return false;
    if (!top || f.purpose != FramePurpose::kTopLevel) return false;
    if (f.query == nullptr || !f.query->order_by.empty()) return false;
    for (const SelectItem& it : f.query->items) {
      if (it.agg == AggFunc::kNone) return true;
    }
    return false;
  };

  auto can_start_where = [&]() {
    if (profile_.max_predicates <= 0) return false;
    bool ok = false;
    for_each_scope_column([&](const ColumnRef& c) {
      if (ok) return;
      if (rhs_options(c).any()) ok = true;
    });
    if (!ok && !subquery_tight && profile_.allow_exists && profile_.allow_nested &&
        depth_above_top < profile_.max_nesting_depth) {
      ok = true;  // EXISTS (...) needs no lhs
    }
    return ok;
  };

  switch (f.phase) {
    case BuildPhase::kFromTable: {
      if (f.purpose == FramePurpose::kInsertSource) {
        Allow(vocab_->table_token_id(f.pinned_table));
        return;
      }
      if (f.purpose == FramePurpose::kInSub) {
        // Only tables holding a column comparable to the outer lhs.
        DataType lhs_type = cat.table(f.outer_lhs.table_idx)
                                .column(f.outer_lhs.column_idx)
                                .type;
        for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
          for (size_t ci = 0; ci < cat.table(ti).num_columns(); ++ci) {
            if (AreComparable(lhs_type, cat.table(ti).column(ci).type)) {
              Allow(vocab_->table_token_id(static_cast<int>(ti)));
              break;
            }
          }
        }
        return;
      }
      for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
        Allow(vocab_->table_token_id(static_cast<int>(ti)));
      }
      return;
    }

    case BuildPhase::kAfterFromTable: {
      AllowKeyword(Keyword::kSelect);
      const bool joins_left =
          static_cast<int>(f.scope_tables.size()) - 1 < profile_.max_joins;
      if (joins_left && !tight && f.purpose != FramePurpose::kInsertSource) {
        for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
          if (joins_into_scope(static_cast<int>(ti))) {
            AllowKeyword(Keyword::kJoin);
            break;
          }
        }
      }
      return;
    }

    case BuildPhase::kJoinTable: {
      for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
        const int t = static_cast<int>(ti);
        if (joins_into_scope(t)) Allow(vocab_->table_token_id(t));
      }
      return;
    }

    case BuildPhase::kSelectItem:
    case BuildPhase::kAfterSelectItem: {
      const SelectQuery& q = *f.query;
      const int mix = ItemMix(q);
      const bool first = f.phase == BuildPhase::kSelectItem;
      const int n_items = static_cast<int>(q.items.size());

      // --- item productions ---
      switch (f.purpose) {
        case FramePurpose::kInsertSource: {
          // Must project the pinned table's columns in declaration order.
          if (n_items < static_cast<int>(cat.table(f.pinned_table).num_columns())) {
            Allow(vocab_->column_token_id(f.pinned_table, n_items));
            return;  // nothing else until all columns listed
          }
          break;
        }
        case FramePurpose::kScalarSub: {
          if (n_items == 0) {
            AllowKeyword(Keyword::kCount);
            if (scope_has_numeric()) {
              AllowKeyword(Keyword::kMax);
              AllowKeyword(Keyword::kMin);
              AllowKeyword(Keyword::kSum);
              AllowKeyword(Keyword::kAvg);
            }
            return;
          }
          break;
        }
        case FramePurpose::kInSub: {
          if (n_items == 0) {
            DataType lhs_type = cat.table(f.outer_lhs.table_idx)
                                    .column(f.outer_lhs.column_idx)
                                    .type;
            for_each_scope_column([&](const ColumnRef& c) {
              if (AreComparable(lhs_type,
                                cat.table(c.table_idx).column(c.column_idx).type)) {
                Allow(vocab_->column_token_id(c.table_idx, c.column_idx));
              }
            });
            return;
          }
          break;
        }
        case FramePurpose::kExistsSub: {
          if (n_items == 0) {
            for_each_scope_column([&](const ColumnRef& c) {
              Allow(vocab_->column_token_id(c.table_idx, c.column_idx));
            });
            return;
          }
          break;
        }
        case FramePurpose::kTopLevel: {
          const bool room = n_items < profile_.max_select_items;
          if (first || (room && !tight)) {
            // Plain columns: mixing with aggregates demands GROUP BY, so it
            // is only opened when that branch is available.
            const bool plain_ok = mix != 2 || profile_.allow_group_by;
            if (plain_ok && !(tight && mix == 2)) {
              for_each_scope_column([&](const ColumnRef& c) {
                Allow(vocab_->column_token_id(c.table_idx, c.column_idx));
              });
            }
            if (profile_.allow_aggregate &&
                (mix == 0 || mix == 2 || profile_.allow_group_by) &&
                !(tight && mix == 1)) {
              AllowKeyword(Keyword::kCount);
              if (scope_has_numeric()) {
                AllowKeyword(Keyword::kMax);
                AllowKeyword(Keyword::kMin);
                AllowKeyword(Keyword::kSum);
                AllowKeyword(Keyword::kAvg);
              }
            }
            if (first) return;
          }
          break;
        }
      }

      // --- completion productions (only at kAfterSelectItem) ---
      // Entering WHERE grows the query by at least three tokens, so the
      // token budget gates it.
      if (!tight && can_start_where()) AllowKeyword(Keyword::kWhere);
      const bool mixed_unresolved = mix == 3;
      // require_nested: a top-level SELECT may not finish (or branch into
      // GROUP BY / ORDER BY) until a subquery predicate exists.
      const bool nested_pending = profile_.require_nested &&
                                  profile_.allow_nested && top &&
                                  f.query != nullptr &&
                                  !f.query->HasNested() && !tight;
      if (top && f.purpose == FramePurpose::kTopLevel) {
        if (profile_.allow_group_by && (mix == 1 || mix == 3) &&
            !(tight && !mixed_unresolved) && !nested_pending) {
          AllowKeyword(Keyword::kGroupBy);
        }
        if (!mixed_unresolved && can_order_by() && !nested_pending) {
          AllowKeyword(Keyword::kOrderBy);
        }
        if (!mixed_unresolved && !nested_pending) Allow(vocab_->eof_id());
      } else {
        // Subquery frames: single item only; close.
        if (f.purpose == FramePurpose::kInsertSource ||
            f.purpose == FramePurpose::kScalarSub ||
            f.purpose == FramePurpose::kInSub ||
            f.purpose == FramePurpose::kExistsSub) {
          AllowKeyword(Keyword::kCloseParen);
        }
      }
      return;
    }

    case BuildPhase::kAggColumn: {
      // Column for the pending aggregate.
      AggFunc agg = f.pending_agg;
      for_each_scope_column([&](const ColumnRef& c) {
        if (AggregateAllowedForType(
                agg, cat.table(c.table_idx).column(c.column_idx).type)) {
          Allow(vocab_->column_token_id(c.table_idx, c.column_idx));
        }
      });
      return;
    }

    case BuildPhase::kWherePred: {
      for_each_scope_column([&](const ColumnRef& c) {
        if (rhs_options(c).any()) {
          Allow(vocab_->column_token_id(c.table_idx, c.column_idx));
        }
      });
      if (!subquery_tight && profile_.allow_exists && profile_.allow_nested &&
          depth_above_top < profile_.max_nesting_depth) {
        AllowKeyword(Keyword::kExists);
        AllowKeyword(Keyword::kNot);
      }
      return;
    }

    case BuildPhase::kAfterNot:
      AllowKeyword(Keyword::kExists);
      return;

    case BuildPhase::kExistsOpen:
    case BuildPhase::kInOpen:
      AllowKeyword(Keyword::kOpenParen);
      return;

    case BuildPhase::kWhereOp: {
      RhsOptions o = rhs_options(f.pending_column);
      DataType type = cat.table(f.pending_column.table_idx)
                          .column(f.pending_column.column_idx)
                          .type;
      if (o.has_values || o.can_scalar) {
        for (int op = 0; op < static_cast<int>(CompareOp::kNumOps); ++op) {
          if (OperatorAllowedForType(static_cast<CompareOp>(op), type)) {
            Allow(vocab_->operator_id(static_cast<CompareOp>(op)));
          }
        }
      }
      if (o.can_in) AllowKeyword(Keyword::kIn);
      if (o.can_like) AllowKeyword(Keyword::kLike);
      return;
    }

    case BuildPhase::kWhereLikeRhs: {
      for (int id : vocab_->pattern_token_ids(f.pending_column.table_idx,
                                              f.pending_column.column_idx)) {
        Allow(id);
      }
      return;
    }

    case BuildPhase::kWhereRhs: {
      RhsOptions o = rhs_options(f.pending_column);
      if (o.has_values) {
        for (int id : vocab_->value_token_ids(f.pending_column.table_idx,
                                              f.pending_column.column_idx)) {
          Allow(id);
        }
      }
      if (o.can_scalar) AllowKeyword(Keyword::kOpenParen);
      return;
    }

    case BuildPhase::kAfterPredicate: {
      const int n_preds =
          f.where != nullptr ? static_cast<int>(f.where->predicates.size()) : 0;
      if (!tight && n_preds < profile_.max_predicates && can_start_where()) {
        AllowKeyword(Keyword::kAnd);
        AllowKeyword(Keyword::kOr);
      }
      if (f.query != nullptr) {
        const int mix = ItemMix(*f.query);
        const bool mixed_unresolved = mix == 3;
        if (top && f.purpose == FramePurpose::kTopLevel) {
          if (profile_.allow_group_by && (mix == 1 || mix == 3) &&
              (mixed_unresolved || !tight)) {
            AllowKeyword(Keyword::kGroupBy);
          }
          if (!mixed_unresolved && can_order_by()) {
            AllowKeyword(Keyword::kOrderBy);
          }
          if (!mixed_unresolved) Allow(vocab_->eof_id());
        } else {
          AllowKeyword(Keyword::kCloseParen);
        }
      } else {
        // DML WHERE (UPDATE/DELETE): completion is EOF.
        Allow(vocab_->eof_id());
      }
      return;
    }

    case BuildPhase::kGroupByColumn:
    case BuildPhase::kAfterGroupBy: {
      for (const ColumnRef& c : f.groupby_remaining) {
        Allow(vocab_->column_token_id(c.table_idx, c.column_idx));
      }
      if (f.phase == BuildPhase::kAfterGroupBy && f.groupby_remaining.empty()) {
        if (!tight && profile_.allow_aggregate &&
            scope_has_numeric_with_values()) {
          AllowKeyword(Keyword::kHaving);
        }
        if (top) {
          if (can_order_by()) AllowKeyword(Keyword::kOrderBy);
          Allow(vocab_->eof_id());
        } else {
          AllowKeyword(Keyword::kCloseParen);
        }
      }
      return;
    }

    case BuildPhase::kHavingAgg: {
      // HAVING columns are restricted to numeric columns with sampled
      // values so the rhs literal is type-compatible for every aggregate.
      AllowKeyword(Keyword::kCount);
      AllowKeyword(Keyword::kMax);
      AllowKeyword(Keyword::kMin);
      AllowKeyword(Keyword::kSum);
      AllowKeyword(Keyword::kAvg);
      return;
    }

    case BuildPhase::kHavingColumn: {
      for_each_scope_column([&](const ColumnRef& c) {
        if (IsNumeric(cat.table(c.table_idx).column(c.column_idx).type) &&
            ColumnHasValues(c)) {
          Allow(vocab_->column_token_id(c.table_idx, c.column_idx));
        }
      });
      return;
    }

    case BuildPhase::kHavingOp: {
      for (int op = 0; op < static_cast<int>(CompareOp::kNumOps); ++op) {
        Allow(vocab_->operator_id(static_cast<CompareOp>(op)));
      }
      return;
    }

    case BuildPhase::kHavingValue: {
      const HavingClause& h = *f.query->having;
      for (int id :
           vocab_->value_token_ids(h.column.table_idx, h.column.column_idx)) {
        Allow(id);
      }
      return;
    }

    case BuildPhase::kAfterHaving:
      if (top) {
        if (can_order_by()) AllowKeyword(Keyword::kOrderBy);
        Allow(vocab_->eof_id());
      } else {
        AllowKeyword(Keyword::kCloseParen);
      }
      return;

    case BuildPhase::kOrderByColumn:
    case BuildPhase::kAfterOrderBy: {
      for (const ColumnRef& c : f.orderby_candidates) {
        Allow(vocab_->column_token_id(c.table_idx, c.column_idx));
      }
      if (f.phase == BuildPhase::kAfterOrderBy) Allow(vocab_->eof_id());
      return;
    }

    default:
      return;
  }
}

void GenerationFsm::MaskInsert() {
  const BuildFrame& f = builder_.frame();
  const Catalog& cat = db_->catalog();
  switch (f.phase) {
    case BuildPhase::kInsertTable: {
      for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
        Allow(vocab_->table_token_id(static_cast<int>(ti)));
      }
      return;
    }
    case BuildPhase::kAfterInsertTable: {
      int t = builder_.ast().insert->table_idx;
      bool values_ok = true;
      for (size_t ci = 0; ci < cat.table(t).num_columns(); ++ci) {
        if (vocab_->value_token_ids(t, static_cast<int>(ci)).empty()) {
          values_ok = false;
          break;
        }
      }
      if (values_ok) AllowKeyword(Keyword::kValues);
      AllowKeyword(Keyword::kOpenParen);
      return;
    }
    case BuildPhase::kInsertValue: {
      int t = builder_.ast().insert->table_idx;
      int next = static_cast<int>(builder_.ast().insert->values.size());
      for (int id : vocab_->value_token_ids(t, next)) Allow(id);
      return;
    }
    case BuildPhase::kInsertDone:
      Allow(vocab_->eof_id());
      return;
    default:
      return;
  }
}

void GenerationFsm::MaskUpdate() {
  const BuildFrame& f = builder_.frame();
  const Catalog& cat = db_->catalog();
  switch (f.phase) {
    case BuildPhase::kUpdateTable: {
      for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
        const TableSchema& ts = cat.table(ti);
        for (size_t ci = 0; ci < ts.num_columns(); ++ci) {
          if (!ts.column(ci).is_primary_key &&
              !vocab_->value_token_ids(static_cast<int>(ti),
                                       static_cast<int>(ci)).empty()) {
            Allow(vocab_->table_token_id(static_cast<int>(ti)));
            break;
          }
        }
      }
      return;
    }
    case BuildPhase::kUpdateSetKw:
      AllowKeyword(Keyword::kSet);
      return;
    case BuildPhase::kUpdateSetColumn: {
      int t = builder_.ast().update->table_idx;
      const TableSchema& ts = cat.table(t);
      for (size_t ci = 0; ci < ts.num_columns(); ++ci) {
        if (!ts.column(ci).is_primary_key &&
            !vocab_->value_token_ids(t, static_cast<int>(ci)).empty()) {
          Allow(vocab_->column_token_id(t, static_cast<int>(ci)));
        }
      }
      return;
    }
    case BuildPhase::kUpdateSetValue: {
      const ColumnRef& c = builder_.ast().update->set_column;
      for (int id : vocab_->value_token_ids(c.table_idx, c.column_idx)) {
        Allow(id);
      }
      return;
    }
    case BuildPhase::kUpdateAfterSet: {
      // WHERE needs a usable predicate lhs on the target table.
      int t = builder_.ast().update->table_idx;
      bool has_lhs = false;
      for (size_t ci = 0; ci < cat.table(t).num_columns(); ++ci) {
        if (!vocab_->value_token_ids(t, static_cast<int>(ci)).empty()) {
          has_lhs = true;
          break;
        }
      }
      if (has_lhs && profile_.max_predicates > 0 && !BudgetTight()) {
        AllowKeyword(Keyword::kWhere);
      }
      Allow(vocab_->eof_id());
      return;
    }
    default:
      return;
  }
}

void GenerationFsm::MaskDelete() {
  const BuildFrame& f = builder_.frame();
  const Catalog& cat = db_->catalog();
  switch (f.phase) {
    case BuildPhase::kDeleteTable: {
      for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
        Allow(vocab_->table_token_id(static_cast<int>(ti)));
      }
      return;
    }
    case BuildPhase::kDeleteAfterTable: {
      int t = builder_.ast().del->table_idx;
      bool has_lhs = false;
      for (size_t ci = 0; ci < cat.table(t).num_columns(); ++ci) {
        if (!vocab_->value_token_ids(t, static_cast<int>(ci)).empty()) {
          has_lhs = true;
          break;
        }
      }
      if (has_lhs && profile_.max_predicates > 0 && !BudgetTight()) {
        AllowKeyword(Keyword::kWhere);
      }
      Allow(vocab_->eof_id());
      return;
    }
    default:
      return;
  }
}

Status GenerationFsm::Step(int action_id) {
  if (action_id < 0 || action_id >= vocab_->size()) {
    return Status::InvalidArgument("action id out of range");
  }
  const Token& token = vocab_->token(action_id);
  if (obs::Enabled()) {
    // Token-class mix of the committed actions (paper §4.1 categories).
    static obs::Counter* const by_kind[] = {
        &obs::MetricsRegistry::Global().GetCounter("fsm.tokens_keyword"),
        &obs::MetricsRegistry::Global().GetCounter("fsm.tokens_table"),
        &obs::MetricsRegistry::Global().GetCounter("fsm.tokens_column"),
        &obs::MetricsRegistry::Global().GetCounter("fsm.tokens_value"),
        &obs::MetricsRegistry::Global().GetCounter("fsm.tokens_operator"),
        &obs::MetricsRegistry::Global().GetCounter("fsm.tokens_eof"),
    };
    by_kind[static_cast<int>(token.kind)]->Inc();
  }
  return builder_.Feed(token);
}


}  // namespace lsg
