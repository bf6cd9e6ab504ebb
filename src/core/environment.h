#ifndef LEARNEDSQLGEN_CORE_ENVIRONMENT_H_
#define LEARNEDSQLGEN_CORE_ENVIRONMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsm/generation_fsm.h"
#include "optimizer/cost_model.h"
#include "optimizer/prefix_estimator.h"
#include "rl/reward.h"
#include "rl/trajectory.h"
#include "vexec/vectorized_engine.h"

namespace lsg {

class DatabaseContext;

/// How the environment computes the metric feedback.
enum class FeedbackSource {
  /// Optimizer estimates (the paper's choice: "we do not use the real
  /// cardinality for the efficiency issue").
  kEstimator = 0,
  /// Actual execution against the database (feedback ablation).
  kTrueExecution = 1,
};

struct EnvironmentOptions {
  QueryProfile profile;
  FeedbackSource feedback = FeedbackSource::kEstimator;

  /// When false, only the completed query earns a reward (the sparse
  /// signal the paper's §4.2 Remark argues against) — ablation knob.
  bool dense_partial_rewards = true;
};

/// The paper's environment (Figure 1): wraps the FSM (action masking), the
/// database's cost estimator (metric feedback) and the reward function.
/// Partial executable prefixes receive shaped rewards (§4.2 Remark: "simply
/// awarding the end reward ... results in a sparse training signal").
///
/// True-execution feedback (and MetricOf true-cost runs) is answered by the
/// serial vectorized engine (src/vexec/), whose cardinalities and ExecStats
/// are bitwise identical to the nested-loop ReferenceEvaluator's — it is
/// differentially tested against it on every fuzz episode.
///
/// True-execution feedback on the step path is memoized per environment,
/// keyed by the action ids since Reset() (EOF aside, which leaves the query
/// unchanged): the FSM makes the query a pure function of them, and the
/// metric type and engine are fixed for the environment's life, so a
/// repeated query replays its first answer instead of running again.
class SqlGenEnvironment : public Environment {
 public:
  /// All pointers must outlive the environment.
  SqlGenEnvironment(const Database* db, const Vocabulary* vocab,
                    const CardinalityEstimator* estimator,
                    const CostModel* cost_model, Constraint constraint,
                    EnvironmentOptions options);

  /// Environment over a shared context (which must outlive it).
  SqlGenEnvironment(const DatabaseContext& context, Constraint constraint,
                    EnvironmentOptions options);

  void Reset() override;
  const ActionMask& ValidActions() override;
  StatusOr<EnvStepResult> Step(int action) override;
  QueryAst TakeAst() override { return fsm_.TakeAst(); }
  int vocab_size() const override { return vocab_->size(); }

  /// Estimated (or executed) metric of an AST under this constraint's
  /// metric type. Returns 0 when execution fails (e.g. join blowup guard).
  double MetricOf(const QueryAst& ast) const;

  const Constraint& constraint() const { return reward_.constraint(); }
  const GenerationFsm& fsm() const { return fsm_; }

  /// Number of feedback evaluations so far (efficiency accounting).
  int64_t feedback_calls() const { return feedback_calls_; }

  /// Switches the feedback source mid-training (the mixed-feedback
  /// curriculum: cheap estimator feedback early, execution-grounded
  /// feedback for the tail epochs — LearnedSqlGenOptions::
  /// true_feedback_tail). Takes effect from the next metric evaluation.
  void SetFeedbackSource(FeedbackSource source) {
    options_.feedback = source;
  }
  FeedbackSource feedback_source() const { return options_.feedback; }

 private:
  /// One executed query: its metric, and whether it was measured (false
  /// when execution failed or DML cost fell back to the estimate — the
  /// feedback-gap metric records measured values only).
  struct Execution {
    double metric = 0.0;
    bool measured = false;
  };

  struct ActionsHash {
    size_t operator()(const std::vector<int>& actions) const;
  };

  /// Bound on memoized executions per environment; a full memo starts
  /// over. Training runs touch a few hundred distinct prefixes at most.
  static constexpr size_t kExecMemoCapacity = 4096;

  /// Runs `ast` on the engine under the constraint's metric. No counters.
  Execution Execute(const QueryAst& ast) const;

  /// StepMetric's true-execution path: the memoized Execute of the current
  /// prefix. Under LSG_CHECK_INCREMENTAL=1 every hit re-executes and must
  /// match bitwise.
  double ExecuteMemoized(const QueryAst& ast);

  /// Emits the completed episode's telemetry row to the global episode
  /// sink (no-op unless obs::Enabled() and a sink is installed).
  void RecordEpisodeRow(const EnvStepResult& final_step);

  /// Per-step feedback: estimator feedback on a SELECT prefix takes the
  /// O(1) PrefixEstimator path — bitwise identical to the full AST walk
  /// (cross-checked by the fuzz oracle, and on every step when
  /// LSG_CHECK_INCREMENTAL=1 is set); everything else goes to MetricOf.
  double StepMetric();

  /// Records the estimate-vs-true feedback gap for a measured metric
  /// (obs registry: env.feedback_gap histogram + counters). No-op unless
  /// obs::Enabled() — the extra estimator walk is only paid when observed.
  void RecordFeedbackGap(const QueryAst& ast, double measured,
                         bool cardinality_metric) const;

  const Database* db_;
  const Vocabulary* vocab_;
  const CardinalityEstimator* estimator_;
  const CostModel* cost_model_;
  RewardFunction reward_;
  EnvironmentOptions options_;
  GenerationFsm fsm_;
  vexec::VectorizedEngine engine_;
  PrefixEstimator prefix_est_;
  bool check_incremental_;  ///< LSG_CHECK_INCREMENTAL=1 debug cross-check
  mutable int64_t feedback_calls_ = 0;
  std::vector<int> actions_;  ///< non-EOF action ids since Reset(): memo key
  std::unordered_map<std::vector<int>, Execution, ActionsHash> exec_memo_;

  // Per-episode telemetry accumulators (active only while obs::Enabled();
  // see src/obs/). The environment is the one place that sees every step
  // of every episode, for trainers and inference alike, so episode rows
  // are recorded here rather than in each driver.
  std::string constraint_str_;       ///< cached Constraint::ToString()
  double ep_reward_sum_ = 0.0;
  int ep_steps_ = 0;
  uint64_t ep_mask_width_sum_ = 0;
  uint64_t ep_mask_evals_ = 0;
  int64_t ep_feedback_calls_at_reset_ = 0;
  uint64_t ep_start_ns_ = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_ENVIRONMENT_H_
