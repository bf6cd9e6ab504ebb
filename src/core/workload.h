#ifndef LEARNEDSQLGEN_CORE_WORKLOAD_H_
#define LEARNEDSQLGEN_CORE_WORKLOAD_H_

#include <map>
#include <string>
#include <vector>

#include "core/constraint.h"
#include "core/environment.h"

namespace lsg {

/// Structural features of one generated query (the dimensions of the
/// Figure 10 case study).
struct QueryFeatures {
  QueryType type = QueryType::kSelect;
  int num_tables = 1;       ///< joined tables (Fig 10a)
  bool nested = false;      ///< has a subquery (Fig 10b)
  bool has_aggregate = false;  ///< agg items or HAVING (Fig 10c)
  int num_predicates = 0;   ///< total predicates (Fig 10d)
  int num_tokens = 0;       ///< SQL token count (Fig 10f)
};

QueryFeatures FeaturesOf(const QueryAst& ast, int num_tokens);

/// Aggregated distribution over a workload of generated queries.
class WorkloadDistribution {
 public:
  void Add(const QueryFeatures& f);

  int total() const { return total_; }
  /// Fraction of queries with >= 2 tables.
  double MultiJoinFraction() const;
  double NestedFraction() const;
  double AggregateFraction() const;
  const std::map<int, int>& predicate_histogram() const { return preds_; }
  const std::map<int, int>& join_histogram() const { return joins_; }
  const std::map<int, int>& token_length_histogram() const { return tokens_; }
  const std::map<std::string, int>& type_histogram() const { return types_; }

  /// Multi-line human-readable summary (the Figure 10 panels as text).
  std::string ToString() const;

 private:
  int total_ = 0;
  int nested_ = 0;
  int aggregate_ = 0;
  std::map<int, int> joins_;
  std::map<int, int> preds_;
  std::map<int, int> tokens_;
  std::map<std::string, int> types_;
};

/// The one bare-FSM random walk (UniformAction at every step, no
/// environment feedback), used by the fuzzers and the tests. When
/// `actions` is set it is cleared and receives every applied action id, so
/// `lsgfuzz` can replay the walk (ReplayActions).
StatusOr<QueryAst> RandomWalkQuery(GenerationFsm* fsm, Rng* rng,
                                   std::vector<int>* actions = nullptr);

/// Probes the reachable metric range of a database by `samples` uniform
/// episodes of `env` (RunEpisode with UniformAction), returning low/high
/// quantiles (default 10%/90%) of the sampled metric.
/// Benches use this to place the paper's constraint grids on scaled data.
MetricDomain ProbeMetricDomain(SqlGenEnvironment* env, int samples, Rng* rng,
                               double lo_quantile = 0.1,
                               double hi_quantile = 0.9);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_WORKLOAD_H_
