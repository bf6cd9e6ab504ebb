#include "optimizer/cost_model.h"

#include <cmath>

#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace lsg {
namespace {

// PostgreSQL-style cost constants (the defaults mirror postgresql.conf).
constexpr double kSeqPageCost = 1.0;
constexpr double kCpuTupleCost = 0.01;
constexpr double kCpuOperatorCost = 0.0025;
constexpr double kHashBuildCostPerRow = 0.015;
constexpr double kHashProbeCostPerRow = 0.01;
constexpr double kGroupCostPerRow = 0.02;
constexpr double kDmlWriteCostPerRow = 1.0;
constexpr double kRowsPerPage = 80.0;  // ~100B rows in 8KB pages

}  // namespace

CostModel::CostModel(const CardinalityEstimator* estimator)
    : estimator_(estimator) {
  LSG_CHECK(estimator != nullptr);
}

double CostModel::CostFromDetail(const EstimateDetail& d, int num_predicates,
                                 int num_joins, bool has_group,
                                 bool has_order) const {
  double cost = 0.0;
  // Sequential scans: IO pages + per-tuple CPU.
  cost += d.base_rows / kRowsPerPage * kSeqPageCost;
  cost += d.base_rows * kCpuTupleCost;
  // Hash joins: builds and probes approximated from the chain totals.
  if (num_joins > 0) {
    cost += d.base_rows * kHashBuildCostPerRow;
    cost += d.join_output * kHashProbeCostPerRow;
  }
  // Predicate evaluation over the joined stream.
  cost += d.join_output * kCpuOperatorCost *
          static_cast<double>(std::max(1, num_predicates));
  // Grouping.
  if (has_group) cost += d.after_where * kGroupCostPerRow;
  // Sorting (ORDER BY): n log n comparisons over the output.
  if (has_order && d.output_rows > 1.0) {
    cost += d.output_rows * std::log2(d.output_rows + 1.0) * kCpuOperatorCost;
  }
  // Output materialization.
  cost += d.output_rows * kCpuTupleCost;
  // Subquery work (already row-denominated).
  cost += d.subquery_cost_rows * (kCpuTupleCost + kSeqPageCost / kRowsPerPage);
  return cost;
}

double CostModel::SelectCost(const SelectQuery& q) const {
  EstimateDetail d;
  estimator_->EstimateSelect(q, &d);
  return CostFromDetail(d, q.TotalPredicates(), q.NumJoins(),
                        !q.group_by.empty(), !q.order_by.empty());
}

double CostModel::EstimateCost(const QueryAst& ast) const {
  obs::ScopedHistogramTimer timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("opt.cost_ns")
          : nullptr);
  switch (ast.type) {
    case QueryType::kSelect:
      if (ast.select == nullptr) return 0.0;
      return SelectCost(*ast.select);
    case QueryType::kInsert: {
      if (ast.insert == nullptr) return 0.0;
      if (ast.insert->source != nullptr) {
        double src_cost = SelectCost(*ast.insert->source);
        double rows = estimator_->EstimateSelect(*ast.insert->source, nullptr);
        return src_cost + rows * kDmlWriteCostPerRow;
      }
      return kCpuTupleCost + kDmlWriteCostPerRow;
    }
    case QueryType::kUpdate: {
      if (ast.update == nullptr) return 0.0;
      double table_rows = static_cast<double>(
          estimator_->stats().table_rows[ast.update->table_idx]);
      double affected = estimator_->EstimateCardinality(ast);
      double scan = table_rows / kRowsPerPage * kSeqPageCost +
                    table_rows * kCpuTupleCost;
      return scan + affected * kDmlWriteCostPerRow;
    }
    case QueryType::kDelete: {
      if (ast.del == nullptr) return 0.0;
      double table_rows = static_cast<double>(
          estimator_->stats().table_rows[ast.del->table_idx]);
      double affected = estimator_->EstimateCardinality(ast);
      double scan = table_rows / kRowsPerPage * kSeqPageCost +
                    table_rows * kCpuTupleCost;
      return scan + affected * kDmlWriteCostPerRow;
    }
  }
  return 0.0;
}

double CostModel::TrueCost(const ExecStats& stats, double output_rows) const {
  double cost = 0.0;
  cost += stats.rows_scanned / kRowsPerPage * kSeqPageCost;
  cost += stats.rows_scanned * kCpuTupleCost;
  cost += stats.rows_joined * (kHashBuildCostPerRow + kHashProbeCostPerRow);
  cost += output_rows * kCpuTupleCost;
  return cost;
}

}  // namespace lsg
