#ifndef LEARNEDSQLGEN_CORE_DATABASE_CONTEXT_H_
#define LEARNEDSQLGEN_CORE_DATABASE_CONTEXT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "common/sync.h"
#include "fsm/compiled_fsm.h"
#include "fsm/generation_fsm.h"
#include "optimizer/cardinality_estimator.h"
#include "optimizer/column_stats.h"
#include "optimizer/cost_model.h"
#include "sql/vocabulary.h"

namespace lsg {

/// Everything derived from one database for one (VocabularyOptions,
/// QueryProfile): the statistics, the action space, the estimator, the
/// cost model and the compiled FSM table. All of it is a pure function of
/// its inputs, so it is built once and shared, immutable, by every
/// pipeline, environment and serving snapshot over that database — a
/// pipeline built over a context costs O(1), not an ANALYZE plus a
/// vocabulary sample.
///
/// Thread-safe: every accessor is const, and the one lazily built member
/// (the compiled table) is resolved exactly once under the context's own
/// mutex.
class DatabaseContext {
 public:
  /// Builds the context for `db` (which must outlive it). Fails when the
  /// database is empty or the vocabulary cannot be built. The compiled
  /// table is not built here: compiled_fsm() compiles it on first use,
  /// loading from / saving to `compiled_fsm_cache_dir` when non-empty.
  static StatusOr<std::shared_ptr<const DatabaseContext>> Create(
      const Database* db, const VocabularyOptions& vocab_options,
      const QueryProfile& profile, std::string compiled_fsm_cache_dir = "",
      const CompileFsmOptions& compile_options = CompileFsmOptions());

  DatabaseContext(const DatabaseContext&) = delete;
  DatabaseContext& operator=(const DatabaseContext&) = delete;

  const Database* db() const { return db_; }
  const VocabularyOptions& vocab_options() const { return vocab_options_; }
  const QueryProfile& profile() const { return profile_; }
  const DatabaseStats& stats() const { return stats_; }
  const Vocabulary& vocab() const { return vocab_; }
  const CardinalityEstimator& estimator() const { return estimator_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// The mask/transition table for (db, vocab, profile), compiled on the
  /// first call and shared afterwards. nullptr means compilation is
  /// infeasible under the compile caps: callers run the interpreted FSM,
  /// and the context does not probe again. Concurrent first callers block
  /// until the one compile finishes and all get the same pointer.
  const CompiledFsmTable* compiled_fsm() const LSG_EXCLUDES(fsm_mu_);

  /// Compiles started so far: 0 before the first compiled_fsm() call, 1
  /// ever after (diagnostic hook for tests).
  int compile_attempts() const LSG_EXCLUDES(fsm_mu_);

 private:
  DatabaseContext(const Database* db, const VocabularyOptions& vocab_options,
                  const QueryProfile& profile, Vocabulary vocab,
                  std::string compiled_fsm_cache_dir,
                  const CompileFsmOptions& compile_options);

  const Database* db_;
  VocabularyOptions vocab_options_;
  QueryProfile profile_;
  DatabaseStats stats_;
  Vocabulary vocab_;
  CardinalityEstimator estimator_;
  CostModel cost_model_;
  std::string compiled_fsm_cache_dir_;
  CompileFsmOptions compile_options_;

  mutable Mutex fsm_mu_;
  mutable int compile_attempts_ LSG_GUARDED_BY(fsm_mu_) = 0;
  mutable std::unique_ptr<const CompiledFsmTable> compiled_fsm_
      LSG_GUARDED_BY(fsm_mu_);
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_DATABASE_CONTEXT_H_
