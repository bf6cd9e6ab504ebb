#include "core/environment.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "fsm/compiled_fsm.h"
#include "vexec/backend_factory.h"
#include "obs/episode_telemetry.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"

namespace lsg {

SqlGenEnvironment::SqlGenEnvironment(const Database* db,
                                     const Vocabulary* vocab,
                                     const CardinalityEstimator* estimator,
                                     const CostModel* cost_model,
                                     Constraint constraint,
                                     EnvironmentOptions options)
    : db_(db),
      vocab_(vocab),
      estimator_(estimator),
      cost_model_(cost_model),
      reward_(constraint),
      options_(options),
      fsm_(db, vocab, options.profile),
      backend_(vexec::MakeBackend(options.execution_backend, db)),
      prefix_est_(estimator, cost_model),
      constraint_str_(constraint.ToString()) {
  LSG_CHECK(estimator != nullptr && cost_model != nullptr);
  if (options.compiled_fsm != nullptr) {
    LSG_CHECK(options.compiled_fsm->fingerprint() ==
              CompiledFsmFingerprint(*db, *vocab, options.profile))
        << "compiled FSM table was built for a different "
        << "(database, vocabulary, profile)";
    fsm_.AttachCompiledTable(options.compiled_fsm);
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): startup latch, no setenv
  const char* check = std::getenv("LSG_CHECK_INCREMENTAL");
  check_incremental_ = check != nullptr && check[0] == '1';
}

void SqlGenEnvironment::Reset() {
  fsm_.Reset();
  prefix_est_.Reset();
  // Telemetry accumulators reset unconditionally: they are cheap, and
  // gating on obs::Enabled() here meant that enabling LSG_OBS mid-run left
  // the first recorded row with a stale feedback baseline and start time.
  ep_reward_sum_ = 0.0;
  ep_steps_ = 0;
  ep_mask_width_sum_ = 0;
  ep_mask_evals_ = 0;
  ep_feedback_calls_at_reset_ = feedback_calls_;
  ep_start_ns_ = Stopwatch::NowNanos();
}

const std::vector<uint8_t>& SqlGenEnvironment::ValidActions() {
  const std::vector<uint8_t>& mask = fsm_.ValidActions();
  if (obs::Enabled()) {
    ep_mask_width_sum_ += static_cast<uint64_t>(fsm_.last_mask_width());
    ep_mask_evals_ += 1;
  }
  return mask;
}

double SqlGenEnvironment::MetricOf(const QueryAst& ast) const {
  ++feedback_calls_;
  obs::ScopedHistogramTimer timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("env.feedback_ns")
          : nullptr);
  if (options_.feedback == FeedbackSource::kTrueExecution) {
    if (reward_.constraint().metric == ConstraintMetric::kCardinality) {
      auto card = backend_->Cardinality(ast);
      if (!card.ok()) return 0.0;
      const double m = static_cast<double>(*card);
      RecordFeedbackGap(ast, m, /*cardinality_metric=*/true);
      return m;
    }
    // True cost: run the query and price the measured operator work.
    if (ast.type == QueryType::kSelect && ast.select != nullptr) {
      auto r = backend_->ExecuteSelect(*ast.select, /*materialize=*/false);
      if (!r.ok()) return 0.0;
      const double m = cost_model_->TrueCost(
          r->stats, static_cast<double>(r->cardinality));
      RecordFeedbackGap(ast, m, /*cardinality_metric=*/false);
      return m;
    }
    // DML true cost falls back to the estimate (dry-run writes are not
    // priced by measurement).
    return cost_model_->EstimateCost(ast);
  }
  if (reward_.constraint().metric == ConstraintMetric::kCardinality) {
    return estimator_->EstimateCardinality(ast);
  }
  return cost_model_->EstimateCost(ast);
}

void SqlGenEnvironment::RecordFeedbackGap(const QueryAst& ast,
                                          double measured,
                                          bool cardinality_metric) const {
  if (!obs::Enabled()) return;
  // The estimator walk is re-run here purely for the gap metric, so the
  // cost of quantifying estimate-vs-true disagreement is only paid while
  // observability is on.
  const double est = cardinality_metric
                         ? estimator_->EstimateCardinality(ast)
                         : cost_model_->EstimateCost(ast);
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("env.true_feedback_calls").Inc();
  const double gap = std::fabs(est - measured);
  reg.GetHistogram(cardinality_metric ? "env.feedback_gap_card"
                                      : "env.feedback_gap_cost")
      .Record(static_cast<uint64_t>(
          std::llround(std::min(gap, 1e18))));
}

double SqlGenEnvironment::StepMetric() {
  const QueryAst& ast = fsm_.builder().ast();
  if (options_.feedback != FeedbackSource::kEstimator ||
      ast.type != QueryType::kSelect || ast.select == nullptr) {
    return MetricOf(ast);
  }
  ++feedback_calls_;
  obs::ScopedHistogramTimer timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("env.feedback_ns")
          : nullptr);
  const bool card =
      reward_.constraint().metric == ConstraintMetric::kCardinality;
  double m = card ? prefix_est_.Cardinality(*ast.select)
                  : prefix_est_.Cost(*ast.select);
  if (check_incremental_) {
    double full = card ? estimator_->EstimateCardinality(ast)
                       : cost_model_->EstimateCost(ast);
    LSG_CHECK(m == full) << "incremental prefix estimate diverged from the "
                         << "full walk: " << m << " vs " << full;
  }
  return m;
}

void SqlGenEnvironment::RecordEpisodeRow(const EnvStepResult& final_step) {
  obs::EpisodeTelemetry* sink = obs::EpisodeSink();
  if (sink == nullptr) return;
  obs::EpisodeRow row;
  row.constraint = constraint_str_;
  row.reward = ep_reward_sum_;
  row.final_metric = final_step.metric;
  row.satisfied = final_step.satisfied;
  row.tokens = ep_steps_;
  row.estimator_calls =
      static_cast<int>(feedback_calls_ - ep_feedback_calls_at_reset_);
  row.mean_mask_width =
      ep_mask_evals_ == 0 ? 0.0
                          : static_cast<double>(ep_mask_width_sum_) /
                                static_cast<double>(ep_mask_evals_);
  row.wall_seconds =
      static_cast<double>(Stopwatch::NowNanos() - ep_start_ns_) / 1e9;
  sink->Record(row);
  static obs::Counter& episodes =
      obs::MetricsRegistry::Global().GetCounter("env.episodes");
  static obs::Counter& satisfied =
      obs::MetricsRegistry::Global().GetCounter("env.episodes_satisfied");
  episodes.Inc();
  if (final_step.satisfied) satisfied.Inc();
}

StatusOr<EnvStepResult> SqlGenEnvironment::Step(int action) {
  LSG_OBS_SPAN("env.step");
  LSG_RETURN_IF_ERROR(fsm_.Step(action));
  EnvStepResult out;
  out.done = fsm_.done();
  out.executable = out.done || fsm_.IsExecutablePrefix();
  if (!out.done && !options_.dense_partial_rewards) {
    // Sparse-reward ablation: partial queries earn nothing.
    if (obs::Enabled()) ++ep_steps_;
    return out;
  }
  if (out.executable) {
    out.metric = StepMetric();
    out.reward = reward_.Reward(true, out.metric);
    out.satisfied = reward_.constraint().Satisfied(out.metric);
  } else {
    out.reward = 0.0;
  }
  if (obs::Enabled()) {
    ++ep_steps_;
    ep_reward_sum_ += out.reward;
    if (out.done) RecordEpisodeRow(out);
  }
  return out;
}

}  // namespace lsg
