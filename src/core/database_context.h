#ifndef LEARNEDSQLGEN_CORE_DATABASE_CONTEXT_H_
#define LEARNEDSQLGEN_CORE_DATABASE_CONTEXT_H_

#include <memory>

#include "common/status.h"
#include "optimizer/cardinality_estimator.h"
#include "optimizer/column_stats.h"
#include "optimizer/cost_model.h"
#include "sql/vocabulary.h"

namespace lsg {

/// Everything derived from one database for one VocabularyOptions: the
/// statistics, the action space, the estimator and the cost model. All of
/// it is a pure function of its inputs, so it is built once and shared,
/// immutable, by every pipeline, environment and serving snapshot over that
/// database — under any QueryProfile, since the profile only steers the
/// per-environment FSM — and a pipeline built over a context costs O(1),
/// not an ANALYZE plus a vocabulary sample.
///
/// Thread-safe: every member is built in Create() and only read after.
class DatabaseContext {
 public:
  /// Builds the context for `db` (which must outlive it). Fails when the
  /// database is empty or the vocabulary cannot be built.
  static StatusOr<std::shared_ptr<const DatabaseContext>> Create(
      const Database* db, const VocabularyOptions& vocab_options);

  DatabaseContext(const DatabaseContext&) = delete;
  DatabaseContext& operator=(const DatabaseContext&) = delete;

  const Database* db() const { return db_; }
  const VocabularyOptions& vocab_options() const { return vocab_options_; }
  const DatabaseStats& stats() const { return stats_; }
  const Vocabulary& vocab() const { return vocab_; }
  const CardinalityEstimator& estimator() const { return estimator_; }
  const CostModel& cost_model() const { return cost_model_; }

 private:
  DatabaseContext(const Database* db, const VocabularyOptions& vocab_options,
                  Vocabulary vocab);

  const Database* db_;
  VocabularyOptions vocab_options_;
  DatabaseStats stats_;
  Vocabulary vocab_;
  CardinalityEstimator estimator_;
  CostModel cost_model_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_DATABASE_CONTEXT_H_
