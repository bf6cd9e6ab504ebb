#ifndef LEARNEDSQLGEN_CORE_GENERATOR_H_
#define LEARNEDSQLGEN_CORE_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/database_context.h"
#include "core/environment.h"
#include "core/workload.h"
#include "rl/policy_gradient_trainer.h"

namespace lsg {

/// The engine answering execution-grounded feedback. One value: the serial
/// vectorized engine (src/vexec/); the reference Executor is its oracle,
/// not a production choice.
enum class ExecutionBackendKind { kVectorized };

/// End-to-end configuration of the LearnedSQLGen pipeline.
struct LearnedSqlGenOptions {
  TrainerOptions trainer;
  QueryProfile profile;
  VocabularyOptions vocab;
  FeedbackSource feedback = FeedbackSource::kEstimator;

  /// Mixed-feedback curriculum: fraction of the training epochs (from the
  /// tail) that switch the environment to execution-grounded feedback
  /// (FeedbackSource::kTrueExecution). Early epochs keep the cheap
  /// estimator signal for exploration; the final ceil(train_epochs ·
  /// true_feedback_tail) epochs ground the policy in measured
  /// cardinalities/costs from the vectorized engine.
  /// 0 disables the switch (paper default); 1 trains fully on execution.
  /// Ignored when `feedback` is already kTrueExecution.
  double true_feedback_tail = 0.0;

  /// Always kVectorized: the vectorized engine makes the true-feedback tail
  /// affordable on 10⁵–10⁶-row databases. Kept, not settable, only so the
  /// end-to-end benchmark's run metadata still compiles.
  static constexpr ExecutionBackendKind execution_backend =
      ExecutionBackendKind::kVectorized;

  /// Training epochs (batched updates) per constraint.
  int train_epochs = 80;

  /// Inference attempt budget per requested satisfied query.
  int attempts_factor = 50;

  /// Train without a critic: plain REINFORCE instead of actor-critic (the
  /// §7.3 comparison).
  bool use_reinforce = false;

  /// Reward-shaping ablation: when false only complete queries earn
  /// rewards (§4.2 Remark).
  bool dense_partial_rewards = true;

  /// Always false: the FSM is interpreted. Kept, not settable, only so
  /// the end-to-end benchmark's run metadata still compiles.
  static constexpr bool use_compiled_fsm = false;

  uint64_t seed = 2024;
};

/// A trained model, ready to serve: the actor's weights plus what decoding
/// needs around them. It owns what it refers to — the actor outright and
/// the database context shared with every other model over the same
/// database (the Database itself must outlive it, as it must outlive the
/// context) — so it outlives the pipeline that trained it, and nothing
/// keeps the trainer, critic, optimizers or training environment alive.
/// Immutable once published: any number of threads may decode over one
/// snapshot (see DecodeItem) without a lock.
struct ServingSnapshot {
  /// Database, vocabulary, estimator and cost model.
  std::shared_ptr<const DatabaseContext> context;
  std::shared_ptr<const PolicyNetwork> actor;
  /// Environment configuration the model was trained under (feedback
  /// source as configured — before any true_feedback_tail switch); fresh
  /// per-request environments are built from this.
  EnvironmentOptions env_opts;
  /// The constraint the model was trained for. A served request is judged
  /// against its own constraint (BatchDecodeItem::constraint);
  /// LearnedSqlGen's Generate* judge against this one.
  Constraint constraint;
  int attempts_factor = 50;
  double train_seconds = 0.0;
};

/// One generated query with its metadata. Move-only (owns the AST).
struct GeneratedQuery {
  std::string sql;
  double metric = 0.0;       ///< estimated card/cost
  bool satisfied = false;
  QueryFeatures features;
  QueryAst ast;              ///< for downstream execution / inspection
};

/// Outcome of a generation run.
struct GenerationReport {
  std::vector<GeneratedQuery> queries;
  int attempts = 0;
  int satisfied = 0;
  double accuracy = 0.0;        ///< satisfied / attempts
  double train_seconds = 0.0;
  double generate_seconds = 0.0;

  double total_seconds() const { return train_seconds + generate_seconds; }
};

/// The LearnedSQLGen system facade: over a DatabaseContext (the action
/// space, statistics, estimator and cost model of a database) it trains
/// the RL model for a constraint (Algorithm 1/3) and generates satisfying
/// queries (Algorithm 2).
///
/// Training runs entirely inside Train: the environment, trainer, critic and
/// optimizers are its locals, and what it leaves behind is one immutable
/// ServingSnapshot (the actor's weights) plus the per-epoch trace.
///
/// Thread-safety contract: one instance is single-threaded (Train,
/// LoadModel and the parameterless Generate* mutate it), but distinct
/// instances over the same const Database — and the same shared
/// DatabaseContext — may run concurrently; the library keeps no mutable
/// global state beyond the thread-safe logger. The service layer
/// (src/service/) trains one pipeline per cached constraint bucket over one
/// context, keeps only its snapshot and drops the pipeline.
class LearnedSqlGen {
 public:
  /// Builds the context `options.vocab` describes for `db` (which must
  /// outlive it). Fails on options no pipeline can serve —
  /// `trainer.batch_size < 1` (an epoch would train on no episode) or
  /// `trainer.net.extra_input_dims != 0` (the pipeline never feeds extra
  /// features; AC-extend drives a PolicyGradientTrainer directly) — and
  /// when the vocabulary cannot be built.
  static StatusOr<std::shared_ptr<const DatabaseContext>> CreateContext(
      const Database* db, const LearnedSqlGenOptions& options);

  /// Builds a pipeline over a shared context in O(1). `options.vocab` must
  /// be the context's; any profile may share it.
  static StatusOr<std::unique_ptr<LearnedSqlGen>> Create(
      std::shared_ptr<const DatabaseContext> context,
      const LearnedSqlGenOptions& options);

  /// Builds a pipeline over a private context for `db` (which must outlive
  /// the generator): CreateContext, then Create.
  static StatusOr<std::unique_ptr<LearnedSqlGen>> Create(
      const Database* db, const LearnedSqlGenOptions& options);

  /// Trains a fresh model for the given constraint and publishes it as
  /// snapshot(). The trainer is freed before Train returns; the sampling
  /// stream of the parameterless Generate* continues the trainer's.
  Status Train(const Constraint& constraint);

  /// Keeps generating until `n` satisfying queries are found or the attempt
  /// budget (n · attempts_factor) runs out. Report contains only the
  /// satisfying queries.
  StatusOr<GenerationReport> GenerateSatisfied(int n);

  /// Generates exactly `n` queries and reports the satisfied fraction
  /// (the paper's accuracy metric). Report contains all n queries.
  StatusOr<GenerationReport> GenerateBatch(int n);

  /// Caller-RNG variants: sampling draws from `rng` instead of the
  /// pipeline's internal stream. The serving path derives one stream per
  /// request from (seed, request), making outputs independent of worker
  /// placement and queue order.
  ///
  /// Every Generate* is a DecodeItem over snapshot() — the same decode
  /// loop the service runs. Queries are therefore scored under
  /// the feedback source the snapshot records (`feedback`), not under the
  /// execution feedback a `true_feedback_tail` switched training to.
  StatusOr<GenerationReport> GenerateSatisfied(int n, Rng* rng);
  StatusOr<GenerationReport> GenerateBatch(int n, Rng* rng);

  /// The trained model, for lock-free serving (see DecodeItem); null
  /// before Train/LoadModel succeeds.
  const std::shared_ptr<const ServingSnapshot>& snapshot() const {
    return snapshot_;
  }

  /// Saves the trained actor's parameters to a binary file.
  Status SaveModel(const std::string& path) const;

  /// Publishes a previously saved actor as the model for `constraint`,
  /// without training, so generation can resume across processes. The
  /// internal sampling stream restarts at Rng(trainer.seed).
  Status LoadModel(const Constraint& constraint, const std::string& path);

  /// Per-epoch training trace of the last Train call (Figure 8c / 9c).
  const std::vector<EpochStats>& trace() const { return trace_; }
  double last_train_seconds() const {
    return snapshot_ != nullptr ? snapshot_->train_seconds : 0.0;
  }

  const Vocabulary& vocab() const { return context_->vocab(); }
  const DatabaseStats& stats() const { return context_->stats(); }
  const CardinalityEstimator& estimator() const {
    return context_->estimator();
  }
  const CostModel& cost_model() const { return context_->cost_model(); }
  const LearnedSqlGenOptions& options() const { return options_; }

 private:
  LearnedSqlGen(std::shared_ptr<const DatabaseContext> context,
                const LearnedSqlGenOptions& options);

  /// Decodes one request (DecodeItem) over snapshot_,
  /// drawing from `rng` (rng_ when null).
  StatusOr<GenerationReport> Decode(int n, bool batch_mode, Rng* rng);

  /// Environment configuration derived from options_.
  EnvironmentOptions BuildEnvOptions() const;

  /// Makes `actor` the served model for `constraint`.
  void Publish(std::unique_ptr<PolicyNetwork> actor,
               const Constraint& constraint, double train_seconds);

  std::shared_ptr<const DatabaseContext> context_;
  LearnedSqlGenOptions options_;
  std::shared_ptr<const ServingSnapshot> snapshot_;
  std::vector<EpochStats> trace_;
  /// Sampling stream of the parameterless Generate*.
  Rng rng_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_GENERATOR_H_
