#include "core/environment.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/database_context.h"
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
      engine_(db),
      prefix_est_(estimator, cost_model),
      constraint_str_(constraint.ToString()) {
  LSG_CHECK(estimator != nullptr && cost_model != nullptr);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): startup latch, no setenv
  const char* check = std::getenv("LSG_CHECK_INCREMENTAL");
  check_incremental_ = check != nullptr && check[0] == '1';
}

SqlGenEnvironment::SqlGenEnvironment(const DatabaseContext& context,
                                     Constraint constraint,
                                     EnvironmentOptions options)
    : SqlGenEnvironment(context.db(), &context.vocab(), &context.estimator(),
                        &context.cost_model(), std::move(constraint),
                        options) {}

void SqlGenEnvironment::Reset() {
  fsm_.Reset();
  prefix_est_.Reset();
  actions_.clear();
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

const ActionMask& SqlGenEnvironment::ValidActions() {
  const ActionMask& mask = fsm_.ValidActions();
  if (obs::Enabled()) {
    ep_mask_width_sum_ += static_cast<uint64_t>(fsm_.last_mask_width());
    ep_mask_evals_ += 1;
  }
  return mask;
}

size_t SqlGenEnvironment::ActionsHash::operator()(
    const std::vector<int>& actions) const {
  uint64_t h = actions.size();
  for (int a : actions) h = SplitMix64(h ^ static_cast<uint32_t>(a));
  return static_cast<size_t>(h);
}

SqlGenEnvironment::Execution SqlGenEnvironment::Execute(
    const QueryAst& ast) const {
  if (reward_.constraint().metric == ConstraintMetric::kCardinality) {
    auto card = engine_.Cardinality(ast);
    if (!card.ok()) return {};
    return {static_cast<double>(*card), true};
  }
  // True cost: run the query and price the measured operator work.
  if (ast.type == QueryType::kSelect && ast.select != nullptr) {
    auto r = engine_.ExecuteSelect(*ast.select, /*materialize=*/false);
    if (!r.ok()) return {};
    return {cost_model_->TrueCost(r->stats,
                                  static_cast<double>(r->cardinality)),
            true};
  }
  // DML true cost falls back to the estimate (dry-run writes are not
  // priced by measurement).
  return {cost_model_->EstimateCost(ast), false};
}

double SqlGenEnvironment::MetricOf(const QueryAst& ast) const {
  ++feedback_calls_;
  obs::ScopedHistogramTimer timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("env.feedback_ns")
          : nullptr);
  const bool card =
      reward_.constraint().metric == ConstraintMetric::kCardinality;
  if (options_.feedback == FeedbackSource::kTrueExecution) {
    const Execution e = Execute(ast);
    if (e.measured) RecordFeedbackGap(ast, e.metric, card);
    return e.metric;
  }
  return card ? estimator_->EstimateCardinality(ast)
              : cost_model_->EstimateCost(ast);
}

double SqlGenEnvironment::ExecuteMemoized(const QueryAst& ast) {
  ++feedback_calls_;
  obs::ScopedHistogramTimer timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("env.feedback_ns")
          : nullptr);
  Execution e;
  auto it = exec_memo_.find(actions_);
  if (it != exec_memo_.end()) {
    e = it->second;
    if (obs::Enabled()) {
      static obs::Counter& hits =
          obs::MetricsRegistry::Global().GetCounter("opt.cache.hits");
      hits.Inc();
    }
    if (check_incremental_) {
      const Execution fresh = Execute(ast);
      LSG_CHECK(std::bit_cast<uint64_t>(fresh.metric) ==
                    std::bit_cast<uint64_t>(e.metric) &&
                fresh.measured == e.measured)
          << "memoized execution diverged from a fresh run: " << e.metric
          << " vs " << fresh.metric;
    }
  } else {
    if (obs::Enabled()) {
      static obs::Counter& misses =
          obs::MetricsRegistry::Global().GetCounter("opt.cache.misses");
      misses.Inc();
    }
    e = Execute(ast);
    if (exec_memo_.size() >= kExecMemoCapacity) exec_memo_.clear();
    exec_memo_.emplace(actions_, e);
  }
  if (e.measured) {
    RecordFeedbackGap(ast, e.metric, reward_.constraint().metric ==
                                         ConstraintMetric::kCardinality);
  }
  return e.metric;
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
  if (options_.feedback == FeedbackSource::kTrueExecution) {
    return ExecuteMemoized(ast);
  }
  if (ast.type != QueryType::kSelect || ast.select == nullptr) {
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
  // EOF only marks the query done — the AST is the one the previous step
  // built — so the memo key leaves it out and a finished query shares its
  // last executable prefix's entry.
  if (action != vocab_->eof_id()) actions_.push_back(action);
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
