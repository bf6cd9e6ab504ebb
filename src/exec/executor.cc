#include "exec/executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/expression.h"
#include "obs/metrics_registry.h"

namespace lsg {

Executor::Executor(const Database* db, uint64_t max_intermediate_tuples)
    : db_(db), max_intermediate_tuples_(max_intermediate_tuples) {
  LSG_CHECK(db != nullptr);
}

Value Executor::TupleValue(const TupleSet& ts, size_t tuple,
                           const ColumnRef& col) const {
  const size_t stride = ts.tables.size();
  for (size_t pos = 0; pos < stride; ++pos) {
    if (ts.tables[pos] == col.table_idx) {
      uint32_t row = ts.flat[tuple * stride + pos];
      return db_->tables()[col.table_idx].GetValue(row, col.column_idx);
    }
  }
  return Value::Null();  // column not in scope; FSM prevents this
}

StatusOr<Executor::TupleSet> Executor::BuildJoin(const SelectQuery& q,
                                                 ExecStats* stats) const {
  if (q.tables.empty()) {
    return Status::InvalidArgument("SELECT without FROM tables");
  }
  const Catalog& cat = db_->catalog();
  TupleSet ts;
  ts.tables.push_back(q.tables[0]);
  const Table& base = db_->tables()[q.tables[0]];
  ts.count = base.num_rows();
  ts.flat.resize(ts.count);
  for (size_t r = 0; r < ts.count; ++r) ts.flat[r] = static_cast<uint32_t>(r);
  stats->rows_scanned += static_cast<double>(ts.count);

  for (size_t i = 1; i < q.tables.size(); ++i) {
    const int new_ti = q.tables[i];
    const Table& new_table = db_->tables()[new_ti];
    stats->rows_scanned += static_cast<double>(new_table.num_rows());

    // Find the FK edge linking new_ti to some table already in the chain.
    int probe_table = -1, probe_col = -1, build_col = -1;
    for (size_t j = 0; j < ts.tables.size() && probe_table < 0; ++j) {
      for (const ForeignKey& fk :
           cat.JoinEdges(cat.table(ts.tables[j]).name(),
                         cat.table(new_ti).name())) {
        const bool new_is_from = fk.from_table == cat.table(new_ti).name();
        const std::string& new_col_name =
            new_is_from ? fk.from_column : fk.to_column;
        const std::string& old_col_name =
            new_is_from ? fk.to_column : fk.from_column;
        probe_table = ts.tables[j];
        probe_col = cat.table(ts.tables[j]).FindColumn(old_col_name);
        build_col = cat.table(new_ti).FindColumn(new_col_name);
        break;
      }
    }
    if (probe_table < 0) {
      return Status::InvalidArgument(
          "no FK edge joins " + cat.table(new_ti).name() + " into the chain");
    }

    // Build hash on the new table's join column.
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash> hash;
    hash.reserve(new_table.num_rows());
    for (size_t r = 0; r < new_table.num_rows(); ++r) {
      Value v = new_table.GetValue(r, build_col);
      if (v.is_null()) continue;
      hash[v].push_back(static_cast<uint32_t>(r));
    }

    // Probe with the existing tuples.
    const size_t stride = ts.tables.size();
    size_t probe_pos = 0;
    for (size_t j = 0; j < stride; ++j) {
      if (ts.tables[j] == probe_table) probe_pos = j;
    }
    std::vector<uint32_t> out;
    out.reserve(ts.flat.size() + ts.count);
    size_t out_count = 0;
    stats->rows_probed += static_cast<double>(ts.count);
    for (size_t t = 0; t < ts.count; ++t) {
      Value v = db_->tables()[probe_table].GetValue(
          ts.flat[t * stride + probe_pos], probe_col);
      if (v.is_null()) continue;
      auto it = hash.find(v);
      if (it == hash.end()) continue;
      for (uint32_t r : it->second) {
        if (out_count + 1 > max_intermediate_tuples_) {
          return Status::OutOfRange("join intermediate exceeds limit");
        }
        for (size_t j = 0; j < stride; ++j) {
          out.push_back(ts.flat[t * stride + j]);
        }
        out.push_back(r);
        ++out_count;
      }
    }
    ts.tables.push_back(new_ti);
    ts.flat = std::move(out);
    ts.count = out_count;
    stats->rows_joined += static_cast<double>(out_count);
  }
  return ts;
}

Status Executor::EvalPredicate(const Predicate& p, const TupleSet& ts,
                               std::vector<bool>* out,
                               ExecStats* stats) const {
  out->assign(ts.count, false);
  switch (p.kind) {
    case PredicateKind::kValue: {
      for (size_t t = 0; t < ts.count; ++t) {
        (*out)[t] = CompareValues(TupleValue(ts, t, p.column), p.op, p.value);
      }
      return Status::Ok();
    }
    case PredicateKind::kScalarSub: {
      auto sub = RunSelect(*p.subquery, /*materialize=*/true);
      if (!sub.ok()) return sub.status();
      stats->Add(sub->stats);
      if (sub->cardinality != 1 || sub->first_column.empty()) {
        return Status::Ok();  // non-scalar subquery result: predicate false
      }
      const Value& scalar = sub->first_column[0];
      for (size_t t = 0; t < ts.count; ++t) {
        (*out)[t] = CompareValues(TupleValue(ts, t, p.column), p.op, scalar);
      }
      return Status::Ok();
    }
    case PredicateKind::kInSub: {
      auto sub = RunSelect(*p.subquery, /*materialize=*/true);
      if (!sub.ok()) return sub.status();
      stats->Add(sub->stats);
      std::unordered_set<Value, ValueHash> members(sub->first_column.begin(),
                                                   sub->first_column.end());
      for (size_t t = 0; t < ts.count; ++t) {
        Value v = TupleValue(ts, t, p.column);
        if (v.is_null()) continue;
        (*out)[t] = members.count(v) > 0;
      }
      return Status::Ok();
    }
    case PredicateKind::kExistsSub: {
      auto sub = RunSelect(*p.subquery, /*materialize=*/false);
      if (!sub.ok()) return sub.status();
      stats->Add(sub->stats);
      bool exists = sub->cardinality > 0;
      if (p.negated) exists = !exists;
      out->assign(ts.count, exists);
      return Status::Ok();
    }
    case PredicateKind::kLike: {
      if (!p.value.is_string()) return Status::Ok();
      const std::string& pattern = p.value.as_string();
      for (size_t t = 0; t < ts.count; ++t) {
        Value v = TupleValue(ts, t, p.column);
        if (v.is_string()) (*out)[t] = LikeMatch(v.as_string(), pattern);
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unknown predicate kind");
}

Status Executor::ApplyWhere(const WhereClause& where, TupleSet* ts,
                            ExecStats* stats) const {
  if (where.empty()) return Status::Ok();
  std::vector<std::vector<bool>> results(where.predicates.size());
  for (size_t i = 0; i < where.predicates.size(); ++i) {
    LSG_RETURN_IF_ERROR(
        EvalPredicate(where.predicates[i], *ts, &results[i], stats));
  }
  const size_t stride = ts->tables.size();
  std::vector<uint32_t> out;
  size_t out_count = 0;
  std::vector<bool> per_pred(where.predicates.size());
  for (size_t t = 0; t < ts->count; ++t) {
    for (size_t i = 0; i < results.size(); ++i) per_pred[i] = results[i][t];
    if (!CombinePredicates(per_pred, where.connectors)) continue;
    for (size_t j = 0; j < stride; ++j) out.push_back(ts->flat[t * stride + j]);
    ++out_count;
  }
  ts->flat = std::move(out);
  ts->count = out_count;
  return Status::Ok();
}

StatusOr<SelectResult> Executor::ExecuteSelect(
    const SelectQuery& q, bool materialize_first_column) const {
  obs::ScopedHistogramTimer timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("exec.select_ns")
          : nullptr);
  return RunSelect(q, materialize_first_column);
}

StatusOr<SelectResult> Executor::RunSelect(
    const SelectQuery& q, bool materialize_first_column) const {
  SelectResult result;
  LSG_ASSIGN_OR_RETURN(TupleSet ts, BuildJoin(q, &result.stats));
  LSG_RETURN_IF_ERROR(ApplyWhere(q.where, &ts, &result.stats));

  const bool has_agg = q.HasAggregate();

  if (q.group_by.empty()) {
    if (!has_agg) {
      result.cardinality = ts.count;
      if (materialize_first_column && !q.items.empty()) {
        result.first_column.reserve(ts.count);
        for (size_t t = 0; t < ts.count; ++t) {
          result.first_column.push_back(
              TupleValue(ts, t, q.items[0].column));
        }
      }
    } else {
      // Aggregate collapse: exactly one output row.
      result.cardinality = 1;
      if (materialize_first_column && !q.items.empty()) {
        std::vector<Value> col;
        col.reserve(ts.count);
        for (size_t t = 0; t < ts.count; ++t) {
          col.push_back(TupleValue(ts, t, q.items[0].column));
        }
        result.first_column.push_back(AggregateValues(q.items[0].agg, col));
      }
    }
    result.stats.rows_output += static_cast<double>(result.cardinality);
    return result;
  }

  // GROUP BY: bucket tuples by the group key; groups are emitted in
  // first-appearance (tuple) order.
  std::unordered_map<std::string, size_t> group_index;
  std::vector<std::vector<uint32_t>> groups;
  std::vector<Value> key_vals(q.group_by.size());
  for (size_t t = 0; t < ts.count; ++t) {
    for (size_t k = 0; k < q.group_by.size(); ++k) {
      key_vals[k] = TupleValue(ts, t, q.group_by[k]);
    }
    auto [it, inserted] =
        group_index.try_emplace(GroupKeyOf(key_vals), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(static_cast<uint32_t>(t));
  }

  uint64_t passing = 0;
  for (const std::vector<uint32_t>& rows : groups) {
    bool pass = true;
    if (q.having.has_value()) {
      std::vector<Value> col;
      col.reserve(rows.size());
      for (uint32_t t : rows) {
        col.push_back(TupleValue(ts, t, q.having->column));
      }
      Value agg = AggregateValues(q.having->agg, col);
      pass = CompareValues(agg, q.having->op, q.having->value);
    }
    if (!pass) continue;
    ++passing;
    if (materialize_first_column && !q.items.empty()) {
      const SelectItem& item = q.items[0];
      if (item.agg == AggFunc::kNone) {
        result.first_column.push_back(TupleValue(ts, rows[0], item.column));
      } else {
        std::vector<Value> col;
        col.reserve(rows.size());
        for (uint32_t t : rows) col.push_back(TupleValue(ts, t, item.column));
        result.first_column.push_back(AggregateValues(item.agg, col));
      }
    }
  }
  result.cardinality = passing;
  result.stats.rows_output += static_cast<double>(passing);
  return result;
}

StatusOr<std::vector<bool>> Executor::MatchRows(
    int table_idx, const WhereClause& where) const {
  if (table_idx < 0 || static_cast<size_t>(table_idx) >= db_->num_tables()) {
    return Status::InvalidArgument("MatchRows: table index out of range");
  }
  const size_t n = db_->tables()[table_idx].num_rows();
  std::vector<bool> match(n, true);
  if (where.empty()) return match;

  TupleSet ts;
  ts.tables = {table_idx};
  ts.count = n;
  ts.flat.reserve(n);
  for (size_t r = 0; r < n; ++r) ts.flat.push_back(static_cast<uint32_t>(r));

  ExecStats stats;
  std::vector<std::vector<bool>> results(where.predicates.size());
  for (size_t i = 0; i < where.predicates.size(); ++i) {
    LSG_RETURN_IF_ERROR(
        EvalPredicate(where.predicates[i], ts, &results[i], &stats));
  }
  std::vector<bool> per_pred(where.predicates.size());
  for (size_t t = 0; t < n; ++t) {
    for (size_t i = 0; i < results.size(); ++i) per_pred[i] = results[i][t];
    match[t] = CombinePredicates(per_pred, where.connectors);
  }
  return match;
}

StatusOr<uint64_t> Executor::Cardinality(const QueryAst& ast) const {
  switch (ast.type) {
    case QueryType::kSelect: {
      if (ast.select == nullptr) {
        return Status::InvalidArgument("empty SELECT ast");
      }
      auto r = ExecuteSelect(*ast.select, /*materialize=*/false);
      if (!r.ok()) return r.status();
      return r->cardinality;
    }
    case QueryType::kInsert: {
      if (ast.insert == nullptr) {
        return Status::InvalidArgument("empty INSERT ast");
      }
      if (ast.insert->source != nullptr) {
        auto r = ExecuteSelect(*ast.insert->source, /*materialize=*/false);
        if (!r.ok()) return r.status();
        return r->cardinality;
      }
      return static_cast<uint64_t>(1);
    }
    case QueryType::kUpdate: {
      if (ast.update == nullptr) {
        return Status::InvalidArgument("empty UPDATE ast");
      }
      SelectQuery probe;
      probe.tables = {ast.update->table_idx};
      // Count matching rows without copying the WHERE (it owns subqueries):
      ExecStats stats;
      LSG_ASSIGN_OR_RETURN(TupleSet ts, BuildJoin(probe, &stats));
      LSG_RETURN_IF_ERROR(ApplyWhere(ast.update->where, &ts, &stats));
      return static_cast<uint64_t>(ts.count);
    }
    case QueryType::kDelete: {
      if (ast.del == nullptr) {
        return Status::InvalidArgument("empty DELETE ast");
      }
      SelectQuery probe;
      probe.tables = {ast.del->table_idx};
      ExecStats stats;
      LSG_ASSIGN_OR_RETURN(TupleSet ts, BuildJoin(probe, &stats));
      LSG_RETURN_IF_ERROR(ApplyWhere(ast.del->where, &ts, &stats));
      return static_cast<uint64_t>(ts.count);
    }
  }
  return Status::Internal("unknown query type");
}

}  // namespace lsg
