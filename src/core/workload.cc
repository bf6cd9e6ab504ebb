#include "core/workload.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace lsg {

QueryFeatures FeaturesOf(const QueryAst& ast, int num_tokens) {
  QueryFeatures f;
  f.type = ast.type;
  f.num_tokens = num_tokens;
  switch (ast.type) {
    case QueryType::kSelect:
      if (ast.select != nullptr) {
        f.num_tables = static_cast<int>(ast.select->tables.size());
        f.nested = ast.select->HasNested();
        f.has_aggregate =
            ast.select->HasAggregate() || ast.select->having.has_value();
        f.num_predicates = ast.select->TotalPredicates();
      }
      break;
    case QueryType::kInsert:
      if (ast.insert != nullptr && ast.insert->source != nullptr) {
        f.nested = true;
        f.num_predicates = ast.insert->source->TotalPredicates();
      }
      break;
    case QueryType::kUpdate:
      if (ast.update != nullptr) {
        f.num_predicates = static_cast<int>(ast.update->where.predicates.size());
        for (const Predicate& p : ast.update->where.predicates) {
          if (p.subquery != nullptr) f.nested = true;
        }
      }
      break;
    case QueryType::kDelete:
      if (ast.del != nullptr) {
        f.num_predicates = static_cast<int>(ast.del->where.predicates.size());
        for (const Predicate& p : ast.del->where.predicates) {
          if (p.subquery != nullptr) f.nested = true;
        }
      }
      break;
  }
  return f;
}

void WorkloadDistribution::Add(const QueryFeatures& f) {
  ++total_;
  if (f.nested) ++nested_;
  if (f.has_aggregate) ++aggregate_;
  ++joins_[f.num_tables];
  ++preds_[f.num_predicates];
  // Bucket token lengths by 5 for a readable histogram.
  ++tokens_[(f.num_tokens / 5) * 5];
  ++types_[QueryTypeName(f.type)];
}

double WorkloadDistribution::MultiJoinFraction() const {
  if (total_ == 0) return 0.0;
  int multi = 0;
  for (const auto& [k, v] : joins_) {
    if (k >= 2) multi += v;
  }
  return static_cast<double>(multi) / total_;
}

double WorkloadDistribution::NestedFraction() const {
  return total_ == 0 ? 0.0 : static_cast<double>(nested_) / total_;
}

double WorkloadDistribution::AggregateFraction() const {
  return total_ == 0 ? 0.0 : static_cast<double>(aggregate_) / total_;
}

std::string WorkloadDistribution::ToString() const {
  std::string out;
  out += StrFormat("queries: %d\n", total_);
  out += StrFormat("(a) multi-join fraction: %.1f%%\n",
                   100.0 * MultiJoinFraction());
  out += "    joined tables: ";
  for (const auto& [k, v] : joins_) {
    out += StrFormat("%d:%d ", k, v);
  }
  out += "\n";
  out += StrFormat("(b) nested fraction: %.1f%%\n", 100.0 * NestedFraction());
  out += StrFormat("(c) aggregate fraction: %.1f%%\n",
                   100.0 * AggregateFraction());
  out += "(d) predicate histogram: ";
  for (const auto& [k, v] : preds_) out += StrFormat("%d:%d ", k, v);
  out += "\n(e) query types: ";
  for (const auto& [k, v] : types_) out += StrFormat("%s:%d ", k.c_str(), v);
  out += "\n(f) token-length histogram (bucket=5): ";
  for (const auto& [k, v] : tokens_) out += StrFormat("%d:%d ", k, v);
  out += "\n";
  return out;
}

StatusOr<QueryAst> RandomWalkQuery(GenerationFsm* fsm, Rng* rng,
                                   std::vector<int>* actions) {
  if (actions != nullptr) actions->clear();
  fsm->Reset();
  for (int step = 0; step < kMaxEpisodeSteps; ++step) {
    LSG_ASSIGN_OR_RETURN(const int a, UniformAction(fsm->ValidActions(), rng));
    LSG_RETURN_IF_ERROR(fsm->Step(a));
    if (actions != nullptr) actions->push_back(a);
    if (fsm->done()) return fsm->TakeAst();
  }
  return Status::Internal("random walk exceeded the step cap");
}

MetricDomain ProbeMetricDomain(SqlGenEnvironment* env, int samples, Rng* rng,
                               double lo_quantile, double hi_quantile) {
  std::vector<double> metrics;
  metrics.reserve(samples);
  for (int s = 0; s < samples; ++s) {
    // A failed walk (an empty mask, a failed step, the step cap) is skipped.
    auto traj = RunEpisode(env, [rng](const ActionMask& mask) {
      return UniformAction(mask, rng);
    });
    if (traj.ok() && traj->final_metric > 0.0) {
      metrics.push_back(traj->final_metric);
    }
  }
  MetricDomain d;
  if (metrics.empty()) return d;
  std::sort(metrics.begin(), metrics.end());
  auto quant = [&](double q) {
    size_t idx = static_cast<size_t>(q * (metrics.size() - 1));
    return metrics[idx];
  };
  d.lo = std::max(1.0, quant(lo_quantile));
  d.hi = std::max(d.lo * 2.0, quant(hi_quantile));
  return d;
}

}  // namespace lsg
