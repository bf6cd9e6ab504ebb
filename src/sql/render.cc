#include "sql/render.h"

#include <vector>

#include "common/logging.h"
#include "common/string_util.h"

namespace lsg {

std::string RenderColumn(const ColumnRef& col, const Catalog& catalog) {
  if (col.table_idx < 0 || col.column_idx < 0) return "?";
  const TableSchema& t = catalog.table(col.table_idx);
  return t.name() + "." + t.column(col.column_idx).name;
}

namespace {

std::string RenderItem(const SelectItem& item, const Catalog& catalog) {
  std::string col = RenderColumn(item.column, catalog);
  if (item.agg == AggFunc::kNone) return col;
  return std::string(AggFuncName(item.agg)) + "(" + col + ")";
}

std::string RenderFrom(const std::vector<int>& tables,
                       const Catalog& catalog) {
  if (tables.empty()) return "";
  std::string out = catalog.table(tables[0]).name();
  for (size_t i = 1; i < tables.size(); ++i) {
    out += " JOIN " + catalog.table(tables[i]).name();
    if (const auto join = catalog.JoinIntoChain(tables, i)) {
      const ForeignKey& fk = *join->fk;
      out += " ON " + fk.from_table + "." + fk.from_column + " = " +
             fk.to_table + "." + fk.to_column;
    } else {
      out += " ON TRUE";  // cross join fallback (FSM prevents it)
    }
  }
  return out;
}

std::string RenderWhere(const WhereClause& where, const Catalog& catalog) {
  if (where.empty()) return "";
  std::string out;
  for (size_t i = 0; i < where.predicates.size(); ++i) {
    if (i > 0) {
      out += where.connectors[i - 1] == BoolConn::kAnd ? " AND " : " OR ";
    }
    const Predicate& p = where.predicates[i];
    switch (p.kind) {
      case PredicateKind::kValue:
        out += RenderColumn(p.column, catalog) + " " + CompareOpText(p.op) +
               " " + p.value.ToSqlLiteral();
        break;
      case PredicateKind::kScalarSub:
        out += RenderColumn(p.column, catalog) + " " + CompareOpText(p.op) +
               " (" + RenderSelect(*p.subquery, catalog) + ")";
        break;
      case PredicateKind::kInSub:
        out += RenderColumn(p.column, catalog) + " IN (" +
               RenderSelect(*p.subquery, catalog) + ")";
        break;
      case PredicateKind::kExistsSub:
        out += std::string(p.negated ? "NOT " : "") + "EXISTS (" +
               RenderSelect(*p.subquery, catalog) + ")";
        break;
      case PredicateKind::kLike:
        out += RenderColumn(p.column, catalog) + " LIKE " +
               p.value.ToSqlLiteral();
        break;
    }
  }
  return out;
}

}  // namespace

std::string RenderSelect(const SelectQuery& q, const Catalog& catalog) {
  std::vector<std::string> items;
  items.reserve(q.items.size());
  for (const SelectItem& it : q.items) items.push_back(RenderItem(it, catalog));
  std::string out = "SELECT " + Join(items, ", ");
  out += " FROM " + RenderFrom(q.tables, catalog);
  std::string where = RenderWhere(q.where, catalog);
  if (!where.empty()) out += " WHERE " + where;
  if (!q.group_by.empty()) {
    std::vector<std::string> cols;
    cols.reserve(q.group_by.size());
    for (const ColumnRef& c : q.group_by) {
      cols.push_back(RenderColumn(c, catalog));
    }
    out += " GROUP BY " + Join(cols, ", ");
  }
  if (q.having.has_value()) {
    out += " HAVING " + std::string(AggFuncName(q.having->agg)) + "(" +
           RenderColumn(q.having->column, catalog) + ") " +
           CompareOpText(q.having->op) + " " + q.having->value.ToSqlLiteral();
  }
  if (!q.order_by.empty()) {
    std::vector<std::string> cols;
    cols.reserve(q.order_by.size());
    for (const ColumnRef& c : q.order_by) {
      cols.push_back(RenderColumn(c, catalog));
    }
    out += " ORDER BY " + Join(cols, ", ");
  }
  return out;
}

std::string RenderSql(const QueryAst& ast, const Catalog& catalog) {
  switch (ast.type) {
    case QueryType::kSelect:
      if (ast.select == nullptr) return "";
      return RenderSelect(*ast.select, catalog);
    case QueryType::kInsert: {
      if (ast.insert == nullptr) return "";
      const InsertQuery& ins = *ast.insert;
      std::string out = "INSERT INTO " + catalog.table(ins.table_idx).name();
      if (ins.source != nullptr) {
        out += " " + RenderSelect(*ins.source, catalog);
      } else {
        std::vector<std::string> vals;
        vals.reserve(ins.values.size());
        for (const Value& v : ins.values) vals.push_back(v.ToSqlLiteral());
        out += " VALUES (" + Join(vals, ", ") + ")";
      }
      return out;
    }
    case QueryType::kUpdate: {
      if (ast.update == nullptr) return "";
      const UpdateQuery& upd = *ast.update;
      std::string out = "UPDATE " + catalog.table(upd.table_idx).name() +
                        " SET " +
                        catalog.table(upd.table_idx)
                            .column(upd.set_column.column_idx)
                            .name +
                        " = " + upd.set_value.ToSqlLiteral();
      std::string where = RenderWhere(upd.where, catalog);
      if (!where.empty()) out += " WHERE " + where;
      return out;
    }
    case QueryType::kDelete: {
      if (ast.del == nullptr) return "";
      std::string out = "DELETE FROM " + catalog.table(ast.del->table_idx).name();
      std::string where = RenderWhere(ast.del->where, catalog);
      if (!where.empty()) out += " WHERE " + where;
      return out;
    }
  }
  return "";
}

}  // namespace lsg
