#ifndef LEARNEDSQLGEN_OPTIMIZER_COST_MODEL_H_
#define LEARNEDSQLGEN_OPTIMIZER_COST_MODEL_H_

#include "exec/select_result.h"
#include "optimizer/cardinality_estimator.h"

namespace lsg {

/// Optimizer cost model: plugs estimated (or measured) per-stage row counts
/// into scan/join/aggregate formulas with PostgreSQL-style cost constants.
/// This is the "cost" metric of the paper's constraints ("we can also allow
/// users to specify the latency as a constraint, but it is sensitive to the
/// hardware environment, so we use cost instead — like optimizers also use
/// cost", §2.1 Remark 3).
class CostModel {
 public:
  explicit CostModel(const CardinalityEstimator* estimator);

  /// Estimated execution cost of any query type.
  double EstimateCost(const QueryAst& ast) const;

  /// Cost of a SELECT from its estimate detail.
  double SelectCost(const SelectQuery& q) const;

  /// "True" cost: the same formulas applied to measured operator
  /// cardinalities from an actual execution (feedback ablation).
  double TrueCost(const ExecStats& stats, double output_rows) const;

  /// Cost formulas over an already-computed estimate breakdown. Public so
  /// the incremental PrefixEstimator can price a prefix from its running
  /// detail without re-walking the AST; `SelectCost` is this applied to a
  /// fresh full estimate.
  double CostFromDetail(const EstimateDetail& d, int num_predicates,
                        int num_joins, bool has_group, bool has_order) const;

 private:
  const CardinalityEstimator* estimator_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_OPTIMIZER_COST_MODEL_H_
