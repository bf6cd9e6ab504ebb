#include "fuzz/reference_eval.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "exec/expression.h"

namespace lsg {

Status ReferenceEvaluator::Charge(uint64_t units) const {
  // Saturate instead of wrapping: a wrapped meter would silently re-arm
  // the budget on pathological row-count products.
  uint64_t next = 0;
  if (__builtin_add_overflow(work_, units, &next)) next = UINT64_MAX;
  work_ = next;
  if (work_ > max_work_) {
    return Status::ResourceExhausted(
        "reference evaluation exceeded its work budget");
  }
  return Status::Ok();
}

StatusOr<SelectResult> ReferenceEvaluator::ExecuteSelect(
    const SelectQuery& q, bool materialize_first_column) const {
  work_ = 0;
  return Select(q, materialize_first_column);
}

StatusOr<ReferenceEvaluator::Tuples> ReferenceEvaluator::Join(
    const std::vector<int>& tables, ExecStats* stats) const {
  if (tables.empty()) {
    return Status::InvalidArgument("SELECT without FROM tables");
  }
  // The base scan is charged before materializing so a 10⁶-row scaled
  // table trips the meter instead of allocating first.
  const size_t base_rows = db_->tables()[tables[0]].num_rows();
  LSG_RETURN_IF_ERROR(Charge(base_rows));
  Tuples ts;
  ts.width = 1;
  for (size_t r = 0; r < base_rows; ++r) {
    ts.rows.push_back(static_cast<uint32_t>(r));
  }
  stats->rows_scanned += static_cast<double>(base_rows);

  const Catalog& cat = db_->catalog();
  for (size_t i = 1; i < tables.size(); ++i) {
    const Table& nt = db_->tables()[tables[i]];
    stats->rows_scanned += static_cast<double>(nt.num_rows());

    const auto join = cat.JoinIntoChain(tables, i);
    if (!join) {
      return Status::InvalidArgument("no FK edge joins " +
                                     cat.table(tables[i]).name() +
                                     " into the chain");
    }

    // The nested-loop product is the probe-equivalent work of this stage.
    // Saturate the multiply: two ~2³² row counts would wrap uint64 and
    // skip the budget.
    uint64_t probe_work = 0;
    if (__builtin_mul_overflow(static_cast<uint64_t>(ts.size()),
                               static_cast<uint64_t>(nt.num_rows()),
                               &probe_work)) {
      probe_work = UINT64_MAX;
    }
    LSG_RETURN_IF_ERROR(Charge(probe_work));
    stats->rows_probed += static_cast<double>(ts.size());

    const Table& probe_table = db_->tables()[tables[join->probe_pos]];
    Tuples next;
    next.width = i + 1;
    uint64_t joined = 0;
    for (size_t t = 0; t < ts.size(); ++t) {
      const Value a =
          probe_table.GetValue(ts.at(t)[join->probe_pos], join->probe_col);
      for (size_t r = 0; r < nt.num_rows(); ++r) {
        const Value b = nt.GetValue(r, join->build_col);
        if (a.is_null() || b.is_null() || a.Compare(b) != 0) continue;
        if (++joined > max_intermediate_tuples_) {
          return Status::OutOfRange("join intermediate exceeds limit");
        }
        next.rows.insert(next.rows.end(), ts.at(t), ts.at(t) + ts.width);
        next.rows.push_back(static_cast<uint32_t>(r));
      }
    }
    stats->rows_joined += static_cast<double>(joined);
    ts = std::move(next);
  }
  return ts;
}

StatusOr<ReferenceEvaluator::Tuples> ReferenceEvaluator::Filter(
    const std::vector<int>& tables, const WhereClause& where,
    const Tuples& in, ExecStats* stats) const {
  // Uncorrelated subqueries run once per predicate, in predicate order,
  // before any tuple is tested.
  const std::vector<Predicate>& preds = where.predicates;
  std::vector<SelectResult> subs(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    if (preds[i].subquery == nullptr) continue;
    LSG_ASSIGN_OR_RETURN(
        subs[i], Select(*preds[i].subquery,
                        preds[i].kind != PredicateKind::kExistsSub));
    stats->Add(subs[i].stats);
  }

  Tuples out;
  out.width = in.width;
  std::vector<bool> truth(preds.size());
  for (size_t t = 0; t < in.size(); ++t) {
    // Even an empty WHERE costs one unit per tuple: MatchRows over a
    // scaled 10⁶-row table must consume budget whether or not predicates
    // exist.
    LSG_RETURN_IF_ERROR(Charge(1 + preds.size()));
    for (size_t i = 0; i < preds.size(); ++i) {
      const Predicate& p = preds[i];
      const SelectResult& sub = subs[i];
      const Value v = TupleValue(tables, in.at(t), p.column);
      switch (p.kind) {
        case PredicateKind::kValue:
          truth[i] = CompareValues(v, p.op, p.value);
          break;
        case PredicateKind::kLike:
          truth[i] = v.is_string() && p.value.is_string() &&
                     LikeMatch(v.as_string(), p.value.as_string());
          break;
        case PredicateKind::kScalarSub:
          truth[i] = sub.cardinality == 1 && !sub.first_column.empty() &&
                     CompareValues(v, p.op, sub.first_column[0]);
          break;
        case PredicateKind::kInSub:
          truth[i] = !v.is_null() &&
                     std::any_of(sub.first_column.begin(),
                                 sub.first_column.end(), [&](const Value& m) {
                                   return !m.is_null() && m.Compare(v) == 0;
                                 });
          break;
        case PredicateKind::kExistsSub:
          truth[i] = (sub.cardinality > 0) != p.negated;
          break;
      }
    }
    if (CombinePredicates(truth, where.connectors)) {
      out.rows.insert(out.rows.end(), in.at(t), in.at(t) + in.width);
    }
  }
  return out;
}

StatusOr<SelectResult> ReferenceEvaluator::Select(const SelectQuery& q,
                                                  bool materialize) const {
  SelectResult result;
  LSG_ASSIGN_OR_RETURN(const Tuples joined, Join(q.tables, &result.stats));
  LSG_ASSIGN_OR_RETURN(const Tuples kept,
                       Filter(q.tables, q.where, joined, &result.stats));
  // Each kept tuple is touched once more to aggregate or group it.
  LSG_RETURN_IF_ERROR(Charge(kept.size()));

  // `col` of every tuple in `members`, in order.
  auto values = [&](const std::vector<size_t>& members, const ColumnRef& col) {
    std::vector<Value> out;
    for (size_t t : members) {
      out.push_back(TupleValue(q.tables, kept.at(t), col));
    }
    return out;
  };
  std::vector<size_t> all(kept.size());
  for (size_t t = 0; t < all.size(); ++t) all[t] = t;
  const bool fill = materialize && !q.items.empty();

  if (q.group_by.empty()) {
    if (q.HasAggregate()) {
      result.cardinality = 1;
      if (fill) {
        result.first_column.push_back(
            AggValues(q.items[0].agg, values(all, q.items[0].column)));
      }
    } else {
      result.cardinality = kept.size();
      if (fill) result.first_column = values(all, q.items[0].column);
    }
    result.stats.rows_output += static_cast<double>(result.cardinality);
    return result;
  }

  // Groups in first-appearance order, keyed by the printed key.
  std::map<std::string, size_t> group_of;
  std::vector<std::vector<size_t>> groups;
  for (size_t t = 0; t < kept.size(); ++t) {
    std::vector<Value> key;
    for (const ColumnRef& c : q.group_by) {
      key.push_back(TupleValue(q.tables, kept.at(t), c));
    }
    auto [it, inserted] = group_of.emplace(GroupKeyOf(key), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(t);
  }
  for (const std::vector<size_t>& members : groups) {
    if (q.having.has_value() &&
        !CompareValues(AggValues(q.having->agg,
                                 values(members, q.having->column)),
                       q.having->op, q.having->value)) {
      continue;
    }
    ++result.cardinality;
    if (!fill) continue;
    const SelectItem& item = q.items[0];
    result.first_column.push_back(
        item.agg == AggFunc::kNone
            ? TupleValue(q.tables, kept.at(members[0]), item.column)
            : AggValues(item.agg, values(members, item.column)));
  }
  result.stats.rows_output += static_cast<double>(result.cardinality);
  return result;
}

StatusOr<std::vector<bool>> ReferenceEvaluator::MatchRows(
    int table_idx, const WhereClause& where) const {
  work_ = 0;
  if (table_idx < 0 || static_cast<size_t>(table_idx) >= db_->num_tables()) {
    return Status::InvalidArgument("MatchRows: table index out of range");
  }
  ExecStats stats;
  LSG_ASSIGN_OR_RETURN(const Tuples rows, Join({table_idx}, &stats));
  LSG_ASSIGN_OR_RETURN(const Tuples kept,
                       Filter({table_idx}, where, rows, &stats));
  std::vector<bool> match(rows.size(), false);
  for (uint32_t r : kept.rows) match[r] = true;
  return match;
}

StatusOr<uint64_t> ReferenceEvaluator::Cardinality(const QueryAst& ast) const {
  work_ = 0;
  const SelectQuery* select = nullptr;
  int table_idx = -1;
  const WhereClause* where = nullptr;
  switch (ast.type) {
    case QueryType::kSelect:
      select = ast.select.get();
      break;
    case QueryType::kInsert:
      if (ast.insert->source == nullptr) return static_cast<uint64_t>(1);
      select = ast.insert->source.get();
      break;
    case QueryType::kUpdate:
      table_idx = ast.update->table_idx;
      where = &ast.update->where;
      break;
    case QueryType::kDelete:
      table_idx = ast.del->table_idx;
      where = &ast.del->where;
      break;
  }
  if (select != nullptr) {
    LSG_ASSIGN_OR_RETURN(const SelectResult r, Select(*select, false));
    return r.cardinality;
  }
  if (where == nullptr) return Status::InvalidArgument("unknown query type");
  LSG_ASSIGN_OR_RETURN(const std::vector<bool> match,
                       MatchRows(table_idx, *where));
  return static_cast<uint64_t>(std::count(match.begin(), match.end(), true));
}

Value ReferenceEvaluator::TupleValue(const std::vector<int>& tables,
                                     const uint32_t* tup,
                                     const ColumnRef& col) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == col.table_idx) {
      return db_->tables()[col.table_idx].GetValue(tup[i], col.column_idx);
    }
  }
  return Value::Null();
}

Value ReferenceEvaluator::AggValues(AggFunc agg,
                                    const std::vector<Value>& values) {
  if (agg == AggFunc::kCount) {
    int64_t n = 0;
    for (const Value& v : values) {
      if (!v.is_null()) ++n;
    }
    return Value(n);
  }
  std::optional<Value> best;
  double sum = 0;
  int64_t n = 0;
  for (const Value& v : values) {
    if (v.is_null()) continue;
    if (!best.has_value()) best = v;
    if (agg == AggFunc::kMax && v.Compare(*best) > 0) best = v;
    if (agg == AggFunc::kMin && v.Compare(*best) < 0) best = v;
    if (v.is_numeric()) {
      sum += v.AsNumber();
      ++n;
    }
  }
  if (!best.has_value()) return Value::Null();
  switch (agg) {
    case AggFunc::kMax:
    case AggFunc::kMin:
      return *best;
    case AggFunc::kSum:
      return Value(sum);
    case AggFunc::kAvg:
      return n > 0 ? Value(sum / n) : Value::Null();
    default:
      return Value::Null();
  }
}

}  // namespace lsg
