#include "optimizer/prefix_estimator.h"

#include "common/logging.h"
#include "exec/expression.h"

namespace lsg {

PrefixEstimator::PrefixEstimator(const CardinalityEstimator* estimator,
                                 const CostModel* cost_model)
    : estimator_(estimator), cost_model_(cost_model) {
  LSG_CHECK(estimator != nullptr);
}

void PrefixEstimator::Reset() {
  tables_done_ = 0;
  rows_ = 0.0;
  base_rows_ = 0.0;
  pred_sels_.clear();
  pred_sub_rows_.clear();
}

double PrefixEstimator::ComputeSelect(const SelectQuery& q,
                                      EstimateDetail* d) {
  // Tokens only append between resets; if the query shrank the caller is
  // estimating a different AST — start over instead of returning garbage.
  if (q.tables.size() < tables_done_ ||
      q.where.predicates.size() < pred_sels_.size()) {
    Reset();
  }
  // Join chain: a left fold whose running value we keep. Each append is
  // the exact loop step of CardinalityEstimator::JoinChainRows.
  for (; tables_done_ < q.tables.size(); ++tables_done_) {
    if (tables_done_ == 0) {
      rows_ = static_cast<double>(estimator_->stats().table_rows[q.tables[0]]);
      base_rows_ += rows_;
    } else {
      rows_ = estimator_->JoinAppendRows(q.tables, tables_done_, rows_,
                                         &base_rows_);
    }
  }
  // Freeze every predicate that can no longer change (all but the last:
  // a new token can only extend the final predicate or open a new clause).
  const size_t np = q.where.predicates.size();
  while (pred_sels_.size() + 1 < np) {
    const Predicate& p = q.where.predicates[pred_sels_.size()];
    EstimateDetail pd;
    double s = estimator_->PredicateSelectivity(p, &pd);
    pred_sels_.push_back(s);
    pred_sub_rows_.push_back(pd.subquery_cost_rows);
  }
  double sel = 1.0;
  double sub_rows = 0.0;
  if (np > 0) {
    for (double r : pred_sub_rows_) sub_rows += r;
    scratch_sels_.assign(pred_sels_.begin(), pred_sels_.end());
    EstimateDetail pd;
    scratch_sels_.push_back(
        estimator_->PredicateSelectivity(q.where.predicates[np - 1], &pd));
    sub_rows += pd.subquery_cost_rows;
    sel = CombineSelectivities(scratch_sels_, q.where.connectors);
  }
  double filtered = rows_ * sel;
  d->base_rows = base_rows_;
  d->join_output = rows_;
  d->after_where = filtered;
  d->subquery_cost_rows = sub_rows;
  double out = estimator_->SelectOutputRows(q, filtered);
  d->output_rows = out;
  return out;
}

double PrefixEstimator::Cardinality(const SelectQuery& q) {
  EstimateDetail d;
  return ComputeSelect(q, &d);
}

double PrefixEstimator::Cost(const SelectQuery& q) {
  LSG_CHECK(cost_model_ != nullptr);
  EstimateDetail d;
  ComputeSelect(q, &d);
  return cost_model_->CostFromDetail(d, q.TotalPredicates(), q.NumJoins(),
                                     !q.group_by.empty(),
                                     !q.order_by.empty());
}

}  // namespace lsg
