#ifndef LEARNEDSQLGEN_OPTIMIZER_PREFIX_ESTIMATOR_H_
#define LEARNEDSQLGEN_OPTIMIZER_PREFIX_ESTIMATOR_H_

#include <cstddef>
#include <vector>

#include "optimizer/cardinality_estimator.h"
#include "optimizer/cost_model.h"
#include "sql/ast.h"

namespace lsg {

/// Incremental prefix estimator: per-episode running state that turns the
/// per-token feedback call from a full AST re-walk into an O(1) update.
///
/// The environment grows one query monotonically between Reset() calls
/// (tokens only append), so the join chain is a left fold whose running
/// value we keep, and every WHERE predicate except the last is frozen and
/// its selectivity (and nested-subquery work) memoized. Only the last
/// predicate — the one a new token can still be extending — is
/// re-estimated fresh each call; the cheap tail (GROUP BY / HAVING /
/// aggregate collapse, ORDER BY costing) is always recomputed.
///
/// Every arithmetic step mirrors CardinalityEstimator::EstimateSelect /
/// CostModel::SelectCost exactly (same operations in the same order), so
/// incremental results are bitwise identical to the full walk — asserted
/// by the `prefix-estimate` fuzz oracle and, under LSG_CHECK_INCREMENTAL,
/// cross-checked on every environment step.
class PrefixEstimator {
 public:
  /// `estimator` must outlive this object; `cost_model` may be null when
  /// only cardinalities are needed.
  PrefixEstimator(const CardinalityEstimator* estimator,
                  const CostModel* cost_model);

  /// Forgets all per-episode state. Call whenever the environment resets.
  void Reset();

  /// Estimated cardinality of the current prefix; equals
  /// `estimator->EstimateSelect(q, nullptr)` bitwise.
  double Cardinality(const SelectQuery& q);

  /// Estimated cost of the current prefix; equals
  /// `cost_model->SelectCost(q)` bitwise.
  double Cost(const SelectQuery& q);

 private:
  double ComputeSelect(const SelectQuery& q, EstimateDetail* d);

  const CardinalityEstimator* estimator_;
  const CostModel* cost_model_;

  // Running join-chain fold over q.tables[0..tables_done_).
  size_t tables_done_ = 0;
  double rows_ = 0.0;
  double base_rows_ = 0.0;
  // Memoized selectivity and nested-subquery row work for the frozen
  // predicates q.where.predicates[0..pred_sels_.size()).
  std::vector<double> pred_sels_;
  std::vector<double> pred_sub_rows_;
  std::vector<double> scratch_sels_;  // reused per call to avoid realloc
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_OPTIMIZER_PREFIX_ESTIMATOR_H_
