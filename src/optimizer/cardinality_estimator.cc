#include "optimizer/cardinality_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "exec/expression.h"
#include "obs/metrics_registry.h"

namespace lsg {
namespace {

// Fallback selectivity when the comparison constant is unknown (e.g. a
// scalar subquery whose value cannot be estimated). Operator-dependent,
// PostgreSQL-style: equality is far more selective than a range.
double DefaultComparisonSelectivity(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return 0.005;
    case CompareOp::kNe:
      return 1.0 - 0.005;
    default:
      return 0.33;  // default inequality selectivity
  }
}

}  // namespace

CardinalityEstimator::CardinalityEstimator(const Database* db,
                                           const DatabaseStats* stats)
    : db_(db), stats_(stats) {
  LSG_CHECK(db != nullptr && stats != nullptr);
}

double CardinalityEstimator::JoinAppendRows(const std::vector<int>& tables,
                                            size_t chain_len, double rows,
                                            double* base_rows) const {
  const int new_ti = tables[chain_len];
  double new_rows = static_cast<double>(stats_->table_rows[new_ti]);
  if (base_rows != nullptr) *base_rows += new_rows;
  // Estimate over the FK edge into the chain with the standard
  // |R| * |S| / max(ndv(a), ndv(b)) formula.
  const auto join = db_->catalog().JoinIntoChain(tables, chain_len);
  if (!join) {
    // Cross join (unreachable under the FSM); cap to avoid runaway —
    // long chains would otherwise overflow to inf and poison rewards and
    // memoized feedback entries.
    return std::min(rows * new_rows, kMaxJoinRows);
  }
  const double ndv_a = std::max<double>(
      1.0, static_cast<double>(stats_->columns[new_ti][join->build_col].ndv));
  const double ndv_b = std::max<double>(
      1.0, static_cast<double>(
               stats_->columns[tables[join->probe_pos]][join->probe_col].ndv));
  return rows * new_rows / std::max(ndv_a, ndv_b);
}

double CardinalityEstimator::JoinChainRows(const std::vector<int>& tables,
                                           EstimateDetail* detail) const {
  if (tables.empty()) return 0.0;
  double base = static_cast<double>(stats_->table_rows[tables[0]]);
  double rows = base;
  for (size_t i = 1; i < tables.size(); ++i) {
    rows = JoinAppendRows(tables, i, rows, &base);
  }
  if (detail != nullptr) {
    detail->base_rows += base;
    detail->join_output += rows;
  }
  return rows;
}

Value CardinalityEstimator::EstimateScalar(const SelectQuery& q) const {
  if (q.items.empty()) return Value::Null();
  const SelectItem& item = q.items[0];
  EstimateDetail detail;
  double rows = EstimateSelect(q, &detail);
  (void)rows;
  // The subquery collapses to one row; estimate its aggregate from the
  // aggregated column's stats, scaled by the subquery's WHERE selectivity.
  const ColumnStats& cs = stats_->at(item.column);
  double input_rows = detail.after_where;
  switch (item.agg) {
    case AggFunc::kMax:
      return Value(cs.max);
    case AggFunc::kMin:
      return Value(cs.min);
    case AggFunc::kAvg:
      return Value(cs.mean);
    case AggFunc::kSum:
      return Value(cs.mean * input_rows);
    case AggFunc::kCount:
      return Value(input_rows);
    case AggFunc::kNone:
      // Bare column scalar subquery: use the mean as a representative value.
      return IsNumeric(cs.type) ? Value(cs.mean) : Value::Null();
  }
  return Value::Null();
}

double CardinalityEstimator::PredicateSelectivity(
    const Predicate& p, EstimateDetail* detail) const {
  switch (p.kind) {
    case PredicateKind::kValue: {
      const ColumnStats& cs = stats_->at(p.column);
      return cs.Selectivity(p.op, p.value);
    }
    case PredicateKind::kScalarSub: {
      EstimateDetail sub_detail;
      double sub_rows = EstimateSelect(*p.subquery, &sub_detail);
      (void)sub_rows;
      if (detail != nullptr) {
        detail->subquery_cost_rows += sub_detail.base_rows +
                                      sub_detail.join_output +
                                      sub_detail.subquery_cost_rows;
      }
      Value scalar = EstimateScalar(*p.subquery);
      if (scalar.is_null()) return DefaultComparisonSelectivity(p.op);
      const ColumnStats& cs = stats_->at(p.column);
      return cs.Selectivity(p.op, scalar);
    }
    case PredicateKind::kInSub: {
      EstimateDetail sub_detail;
      double sub_rows = EstimateSelect(*p.subquery, &sub_detail);
      if (detail != nullptr) {
        detail->subquery_cost_rows += sub_detail.base_rows +
                                      sub_detail.join_output +
                                      sub_detail.subquery_cost_rows;
      }
      const ColumnStats& outer = stats_->at(p.column);
      double outer_ndv = std::max<double>(1.0, static_cast<double>(outer.ndv));
      double sub_distinct = sub_rows;
      if (!p.subquery->items.empty()) {
        const ColumnStats& inner = stats_->at(p.subquery->items[0].column);
        sub_distinct =
            std::min(sub_rows, static_cast<double>(std::max<uint64_t>(1, inner.ndv)));
      }
      // Containment: the matched fraction of the outer domain.
      return std::clamp(sub_distinct / outer_ndv, 0.0, 1.0);
    }
    case PredicateKind::kExistsSub: {
      EstimateDetail sub_detail;
      double sub_rows = EstimateSelect(*p.subquery, &sub_detail);
      if (detail != nullptr) {
        detail->subquery_cost_rows += sub_detail.base_rows +
                                      sub_detail.join_output +
                                      sub_detail.subquery_cost_rows;
      }
      // Uncorrelated EXISTS is all-or-nothing; smooth the boundary so the
      // estimator stays differentiable-ish for reward shaping.
      double sel = std::clamp(sub_rows, 0.0, 1.0);
      return p.negated ? 1.0 - sel : sel;
    }
    case PredicateKind::kLike: {
      if (!p.value.is_string()) return 0.1;
      // Data-driven estimate: match the pattern against the MCV list and
      // assume a small default rate for the non-MCV remainder (similar in
      // spirit to PostgreSQL's pattern selectivity).
      const ColumnStats& cs = stats_->at(p.column);
      const std::string& pattern = p.value.as_string();
      double mcv_mass = 0.0, matched = 0.0;
      for (size_t i = 0; i < cs.mcv_values.size(); ++i) {
        mcv_mass += cs.mcv_freqs[i];
        if (cs.mcv_values[i].is_string() &&
            LikeMatch(cs.mcv_values[i].as_string(), pattern)) {
          matched += cs.mcv_freqs[i];
        }
      }
      double rest = std::max(0.0, 1.0 - mcv_mass);
      return std::clamp(matched + 0.05 * rest, 0.0, 1.0);
    }
  }
  return 1.0;
}

double CardinalityEstimator::WhereSelectivity(const WhereClause& where,
                                              EstimateDetail* detail) const {
  if (where.empty()) return 1.0;
  std::vector<double> sels;
  sels.reserve(where.predicates.size());
  for (const Predicate& p : where.predicates) {
    sels.push_back(PredicateSelectivity(p, detail));
  }
  return CombineSelectivities(sels, where.connectors);
}

double CardinalityEstimator::EstimateSelect(const SelectQuery& q,
                                            EstimateDetail* detail) const {
  EstimateDetail local;
  EstimateDetail* d = detail != nullptr ? detail : &local;
  double rows = JoinChainRows(q.tables, d);
  double sel = WhereSelectivity(q.where, d);
  double filtered = rows * sel;
  d->after_where = filtered;
  double out = SelectOutputRows(q, filtered);
  d->output_rows = out;
  return out;
}

double CardinalityEstimator::SelectOutputRows(const SelectQuery& q,
                                              double filtered) const {
  if (!q.group_by.empty()) {
    // Distinct-product bound, capped by the input size.
    double ndv_prod = 1.0;
    for (const ColumnRef& c : q.group_by) {
      ndv_prod *= std::max<double>(
          1.0, static_cast<double>(stats_->at(c).ndv));
      if (ndv_prod > 1e15) break;
    }
    double out = std::min(filtered, ndv_prod);
    if (q.having.has_value()) {
      // Heuristic HAVING selectivity (eq is more selective than ranges).
      out *= (q.having->op == CompareOp::kEq) ? 0.1 : 0.4;
    }
    return out;
  }
  if (q.HasAggregate()) return 1.0;
  return filtered;
}

double CardinalityEstimator::EstimateCardinality(const QueryAst& ast) const {
  obs::ScopedHistogramTimer timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("opt.estimate_ns")
          : nullptr);
  switch (ast.type) {
    case QueryType::kSelect:
      if (ast.select == nullptr) return 0.0;
      return EstimateSelect(*ast.select, nullptr);
    case QueryType::kInsert:
      if (ast.insert == nullptr) return 0.0;
      if (ast.insert->source != nullptr) {
        return EstimateSelect(*ast.insert->source, nullptr);
      }
      return 1.0;
    case QueryType::kUpdate: {
      if (ast.update == nullptr) return 0.0;
      double rows =
          static_cast<double>(stats_->table_rows[ast.update->table_idx]);
      return rows * WhereSelectivity(ast.update->where, nullptr);
    }
    case QueryType::kDelete: {
      if (ast.del == nullptr) return 0.0;
      double rows = static_cast<double>(stats_->table_rows[ast.del->table_idx]);
      return rows * WhereSelectivity(ast.del->where, nullptr);
    }
  }
  return 0.0;
}

}  // namespace lsg
