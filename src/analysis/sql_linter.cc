#include "analysis/sql_linter.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace lsg {

namespace {

/// Hard nesting ceiling independent of any QueryProfile: deeper trees are
/// never produced by the grammar and almost certainly indicate a runaway
/// builder, so the linter flags them rather than recursing forever.
constexpr int kMaxNestingDepth = 8;

bool IsNumericType(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble;
}

bool IsStringLike(DataType type) {
  return type == DataType::kString || type == DataType::kCategorical;
}

}  // namespace

const char* LintRuleName(LintRule rule) {
  switch (rule) {
    case LintRule::kEmptyTables: return "empty-tables";
    case LintRule::kEmptySelectItems: return "empty-select-items";
    case LintRule::kJoinNotPkFk: return "join-not-pk-fk";
    case LintRule::kColumnOutOfScope: return "column-out-of-scope";
    case LintRule::kOperatorTypeMismatch: return "operator-type-mismatch";
    case LintRule::kAggregateTypeMismatch: return "aggregate-type-mismatch";
    case LintRule::kValueTypeMismatch: return "value-type-mismatch";
    case LintRule::kLikeOnNonString: return "like-on-non-string";
    case LintRule::kMixedItemsWithoutGroupBy:
      return "mixed-items-without-group-by";
    case LintRule::kGroupByMissingPlainItem:
      return "group-by-missing-plain-item";
    case LintRule::kGroupByNotSelectItem: return "group-by-not-select-item";
    case LintRule::kHavingWithoutGroupBy: return "having-without-group-by";
    case LintRule::kOrderByNotSelectItem: return "order-by-not-select-item";
    case LintRule::kScalarSubqueryNotScalar:
      return "scalar-subquery-not-scalar";
    case LintRule::kInSubqueryShape: return "in-subquery-shape";
    case LintRule::kSubqueryTypeMismatch: return "subquery-type-mismatch";
    case LintRule::kNestingTooDeep: return "nesting-too-deep";
    case LintRule::kDmlTargetInvalid: return "dml-target-invalid";
    case LintRule::kInsertArity: return "insert-arity";
    case LintRule::kInsertSourceShape: return "insert-source-shape";
    case LintRule::kUpdatePrimaryKey: return "update-primary-key";
    case LintRule::kNumRules: break;
  }
  return "unknown-rule";
}

SqlLinter::SqlLinter(const Catalog* catalog) : catalog_(catalog) {
  LSG_CHECK(catalog != nullptr);
}

bool SqlLinter::OperatorAllowed(CompareOp op, DataType type) {
  if (IsNumericType(type)) return true;
  return op == CompareOp::kEq || op == CompareOp::kLt || op == CompareOp::kGt;
}

bool SqlLinter::AggregateAllowed(AggFunc agg, DataType type) {
  if (agg == AggFunc::kCount || agg == AggFunc::kNone) return true;
  return IsNumericType(type);
}

bool SqlLinter::TypesComparable(DataType a, DataType b) {
  return a == b || (IsNumericType(a) && IsNumericType(b));
}

bool SqlLinter::ValueCompatible(const Value& value, DataType type) {
  if (value.is_numeric()) return IsNumericType(type);
  if (value.is_string()) return IsStringLike(type);
  return false;  // NULL literals are never generated
}

bool SqlLinter::HasForeignKeyEdge(int table_a, int table_b) const {
  const std::string& a = catalog_->table(table_a).name();
  const std::string& b = catalog_->table(table_b).name();
  for (const ForeignKey& fk : catalog_->foreign_keys()) {
    if ((fk.from_table == a && fk.to_table == b) ||
        (fk.from_table == b && fk.to_table == a)) {
      return true;
    }
  }
  return false;
}

bool SqlLinter::ColumnValid(const ColumnRef& col) const {
  return col.table_idx >= 0 &&
         col.table_idx < static_cast<int>(catalog_->num_tables()) &&
         col.column_idx >= 0 &&
         col.column_idx <
             static_cast<int>(catalog_->table(col.table_idx).num_columns());
}

DataType SqlLinter::TypeOf(const ColumnRef& col) const {
  return catalog_->table(col.table_idx).column(col.column_idx).type;
}

std::string SqlLinter::ColumnName(const ColumnRef& col) const {
  if (!ColumnValid(col)) {
    return StrFormat("<invalid %d.%d>", col.table_idx, col.column_idx);
  }
  return catalog_->table(col.table_idx).name() + "." +
         catalog_->table(col.table_idx).column(col.column_idx).name;
}

void SqlLinter::CheckColumn(const ColumnRef& col,
                            const std::vector<int>& scope_tables,
                            const char* where,
                            std::vector<LintIssue>* out) const {
  if (!ColumnValid(col) ||
      std::find(scope_tables.begin(), scope_tables.end(), col.table_idx) ==
          scope_tables.end()) {
    out->push_back({LintRule::kColumnOutOfScope,
                    StrFormat("%s column %s not in the query's tables", where,
                              ColumnName(col).c_str())});
  }
}

std::vector<LintIssue> SqlLinter::Lint(const QueryAst& ast) const {
  std::vector<LintIssue> out;
  const int n_tables = static_cast<int>(catalog_->num_tables());
  auto check_target = [&](int table_idx, const char* what) {
    if (table_idx < 0 || table_idx >= n_tables) {
      out.push_back({LintRule::kDmlTargetInvalid,
                     StrFormat("%s targets invalid table index %d", what,
                               table_idx)});
      return false;
    }
    return true;
  };

  switch (ast.type) {
    case QueryType::kSelect: {
      if (ast.select == nullptr) {
        out.push_back({LintRule::kEmptyTables, "SELECT query missing body"});
        break;
      }
      LintSelectInto(*ast.select, 0, &out);
      break;
    }
    case QueryType::kInsert: {
      const InsertQuery* ins = ast.insert.get();
      if (ins == nullptr || !check_target(ins->table_idx, "INSERT")) break;
      const TableSchema& schema = catalog_->table(ins->table_idx);
      if (ins->source != nullptr) {
        const SelectQuery& src = *ins->source;
        if (src.items.size() != schema.num_columns()) {
          out.push_back(
              {LintRule::kInsertSourceShape,
               StrFormat("INSERT..SELECT projects %zu items, table %s has "
                         "%zu columns",
                         src.items.size(), schema.name().c_str(),
                         schema.num_columns())});
        }
        for (size_t i = 0; i < src.items.size() && i < schema.num_columns();
             ++i) {
          const SelectItem& it = src.items[i];
          if (it.agg != AggFunc::kNone ||
              !ColumnValid(it.column) ||
              !TypesComparable(TypeOf(it.column), schema.column(i).type)) {
            out.push_back({LintRule::kInsertSourceShape,
                           StrFormat("INSERT..SELECT item %zu does not match "
                                     "column %s",
                                     i, schema.column(i).name.c_str())});
          }
        }
        LintSelectInto(src, 1, &out);
      } else {
        if (ins->values.size() != schema.num_columns()) {
          out.push_back({LintRule::kInsertArity,
                         StrFormat("INSERT supplies %zu values, table %s has "
                                   "%zu columns",
                                   ins->values.size(), schema.name().c_str(),
                                   schema.num_columns())});
        }
        for (size_t i = 0; i < ins->values.size() && i < schema.num_columns();
             ++i) {
          if (!ValueCompatible(ins->values[i], schema.column(i).type)) {
            out.push_back({LintRule::kValueTypeMismatch,
                           StrFormat("INSERT value %zu incompatible with "
                                     "column %s",
                                     i, schema.column(i).name.c_str())});
          }
        }
      }
      break;
    }
    case QueryType::kUpdate: {
      const UpdateQuery* upd = ast.update.get();
      if (upd == nullptr || !check_target(upd->table_idx, "UPDATE")) break;
      const std::vector<int> scope = {upd->table_idx};
      CheckColumn(upd->set_column, scope, "UPDATE SET", &out);
      if (ColumnValid(upd->set_column) &&
          upd->set_column.table_idx == upd->table_idx) {
        const ColumnSchema& col = catalog_->table(upd->table_idx)
                                      .column(upd->set_column.column_idx);
        if (col.is_primary_key) {
          out.push_back({LintRule::kUpdatePrimaryKey,
                         "UPDATE SET over primary-key column " +
                             ColumnName(upd->set_column)});
        }
        if (!ValueCompatible(upd->set_value, col.type)) {
          out.push_back({LintRule::kValueTypeMismatch,
                         "UPDATE SET value incompatible with column " +
                             ColumnName(upd->set_column)});
        }
      }
      LintWhereInto(upd->where, scope, 0, &out);
      break;
    }
    case QueryType::kDelete: {
      const DeleteQuery* del = ast.del.get();
      if (del == nullptr || !check_target(del->table_idx, "DELETE")) break;
      LintWhereInto(del->where, {del->table_idx}, 0, &out);
      break;
    }
  }
  return out;
}

void SqlLinter::LintSelectInto(const SelectQuery& q, int depth,
                               std::vector<LintIssue>* out) const {
  if (depth > kMaxNestingDepth) {
    out->push_back({LintRule::kNestingTooDeep,
                    StrFormat("subquery nesting exceeds depth %d",
                              kMaxNestingDepth)});
    return;
  }
  if (q.tables.empty()) {
    out->push_back({LintRule::kEmptyTables, "SELECT with no FROM tables"});
    return;
  }
  const int n_tables = static_cast<int>(catalog_->num_tables());
  for (int t : q.tables) {
    if (t < 0 || t >= n_tables) {
      out->push_back({LintRule::kEmptyTables,
                      StrFormat("FROM references invalid table index %d", t)});
      return;
    }
  }

  // Join chain: every table after the anchor must share a PK-FK edge with
  // some earlier table (paper §5 "Meaningful Checking").
  for (size_t i = 1; i < q.tables.size(); ++i) {
    bool joinable = false;
    for (size_t j = 0; j < i && !joinable; ++j) {
      joinable = HasForeignKeyEdge(q.tables[j], q.tables[i]);
    }
    if (!joinable) {
      out->push_back({LintRule::kJoinNotPkFk,
                      "joined table " + catalog_->table(q.tables[i]).name() +
                          " has no PK-FK edge to the preceding chain"});
    }
  }

  if (q.items.empty()) {
    out->push_back({LintRule::kEmptySelectItems, "SELECT with no items"});
  }
  bool any_plain = false, any_agg = false;
  for (const SelectItem& it : q.items) {
    CheckColumn(it.column, q.tables, "select-item", out);
    if (it.agg == AggFunc::kNone) {
      any_plain = true;
    } else {
      any_agg = true;
      if (ColumnValid(it.column) &&
          !AggregateAllowed(it.agg, TypeOf(it.column))) {
        out->push_back({LintRule::kAggregateTypeMismatch,
                        StrFormat("%s over non-numeric column %s",
                                  AggFuncName(it.agg),
                                  ColumnName(it.column).c_str())});
      }
    }
  }
  if (any_plain && any_agg && q.group_by.empty()) {
    out->push_back({LintRule::kMixedItemsWithoutGroupBy,
                    "plain and aggregate select items without GROUP BY"});
  }

  if (!q.group_by.empty()) {
    for (const ColumnRef& g : q.group_by) {
      CheckColumn(g, q.tables, "GROUP BY", out);
      bool is_item = false;
      for (const SelectItem& it : q.items) {
        if (it.agg == AggFunc::kNone && it.column == g) is_item = true;
      }
      if (!is_item) {
        out->push_back({LintRule::kGroupByNotSelectItem,
                        "GROUP BY column " + ColumnName(g) +
                            " is not a plain select item"});
      }
    }
    for (const SelectItem& it : q.items) {
      if (it.agg != AggFunc::kNone) continue;
      if (std::find(q.group_by.begin(), q.group_by.end(), it.column) ==
          q.group_by.end()) {
        out->push_back({LintRule::kGroupByMissingPlainItem,
                        "plain select item " + ColumnName(it.column) +
                            " missing from GROUP BY"});
      }
    }
  }

  if (q.having.has_value()) {
    if (q.group_by.empty()) {
      out->push_back({LintRule::kHavingWithoutGroupBy,
                      "HAVING clause without GROUP BY"});
    }
    const HavingClause& h = *q.having;
    CheckColumn(h.column, q.tables, "HAVING", out);
    if (ColumnValid(h.column) && !AggregateAllowed(h.agg, TypeOf(h.column))) {
      out->push_back({LintRule::kAggregateTypeMismatch,
                      StrFormat("HAVING %s over non-numeric column %s",
                                AggFuncName(h.agg),
                                ColumnName(h.column).c_str())});
    }
    // Every aggregate result is numeric, so the rhs literal must be too.
    if (!h.value.is_numeric()) {
      out->push_back({LintRule::kValueTypeMismatch,
                      "HAVING compares an aggregate to a non-numeric literal"});
    }
  }

  for (const ColumnRef& o : q.order_by) {
    CheckColumn(o, q.tables, "ORDER BY", out);
    bool is_item = false;
    for (const SelectItem& it : q.items) {
      if (it.agg == AggFunc::kNone && it.column == o) is_item = true;
    }
    if (!is_item) {
      out->push_back({LintRule::kOrderByNotSelectItem,
                      "ORDER BY column " + ColumnName(o) +
                          " is not a plain select item"});
    }
  }

  LintWhereInto(q.where, q.tables, depth, out);
}

void SqlLinter::LintWhereInto(const WhereClause& where,
                              const std::vector<int>& scope_tables, int depth,
                              std::vector<LintIssue>* out) const {
  for (const Predicate& p : where.predicates) {
    switch (p.kind) {
      case PredicateKind::kValue: {
        CheckColumn(p.column, scope_tables, "predicate", out);
        if (!ColumnValid(p.column)) break;
        DataType type = TypeOf(p.column);
        if (!OperatorAllowed(p.op, type)) {
          out->push_back({LintRule::kOperatorTypeMismatch,
                          StrFormat("operator %s illegal for %s column %s",
                                    CompareOpText(p.op), DataTypeName(type),
                                    ColumnName(p.column).c_str())});
        }
        if (!ValueCompatible(p.value, type)) {
          out->push_back({LintRule::kValueTypeMismatch,
                          "literal incompatible with column " +
                              ColumnName(p.column)});
        }
        break;
      }
      case PredicateKind::kLike: {
        CheckColumn(p.column, scope_tables, "LIKE", out);
        if (ColumnValid(p.column) && !IsStringLike(TypeOf(p.column))) {
          out->push_back({LintRule::kLikeOnNonString,
                          "LIKE over non-string column " +
                              ColumnName(p.column)});
        }
        if (!p.value.is_string()) {
          out->push_back({LintRule::kLikeOnNonString,
                          "LIKE pattern is not a string literal"});
        }
        break;
      }
      case PredicateKind::kScalarSub: {
        CheckColumn(p.column, scope_tables, "predicate", out);
        if (p.subquery == nullptr) {
          out->push_back({LintRule::kScalarSubqueryNotScalar,
                          "scalar predicate without a subquery"});
          break;
        }
        const SelectQuery& sub = *p.subquery;
        if (sub.items.size() != 1 || sub.items[0].agg == AggFunc::kNone) {
          out->push_back({LintRule::kScalarSubqueryNotScalar,
                          "scalar subquery must project exactly one "
                          "aggregate item"});
        } else if (ColumnValid(p.column)) {
          // Aggregate results are numeric, so the lhs must be numeric too.
          DataType lhs = TypeOf(p.column);
          if (!IsNumericType(lhs)) {
            out->push_back({LintRule::kSubqueryTypeMismatch,
                            "scalar subquery compared against non-numeric "
                            "column " + ColumnName(p.column)});
          } else if (!OperatorAllowed(p.op, lhs)) {
            out->push_back({LintRule::kOperatorTypeMismatch,
                            StrFormat("operator %s illegal for column %s",
                                      CompareOpText(p.op),
                                      ColumnName(p.column).c_str())});
          }
        }
        LintSelectInto(sub, depth + 1, out);
        break;
      }
      case PredicateKind::kInSub: {
        CheckColumn(p.column, scope_tables, "IN predicate", out);
        if (p.subquery == nullptr) {
          out->push_back({LintRule::kInSubqueryShape,
                          "IN predicate without a subquery"});
          break;
        }
        const SelectQuery& sub = *p.subquery;
        if (sub.items.size() != 1 || sub.items[0].agg != AggFunc::kNone) {
          out->push_back({LintRule::kInSubqueryShape,
                          "IN subquery must project exactly one plain "
                          "column"});
        } else if (ColumnValid(p.column) && ColumnValid(sub.items[0].column) &&
                   !TypesComparable(TypeOf(p.column),
                                    TypeOf(sub.items[0].column))) {
          out->push_back({LintRule::kSubqueryTypeMismatch,
                          "IN subquery column " +
                              ColumnName(sub.items[0].column) +
                              " incomparable with " + ColumnName(p.column)});
        }
        LintSelectInto(sub, depth + 1, out);
        break;
      }
      case PredicateKind::kExistsSub: {
        if (p.subquery == nullptr) {
          out->push_back({LintRule::kInSubqueryShape,
                          "EXISTS predicate without a subquery"});
          break;
        }
        LintSelectInto(*p.subquery, depth + 1, out);
        break;
      }
    }
  }
}

}  // namespace lsg
