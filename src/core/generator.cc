#include "core/generator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/decode.h"
#include "nn/serialize.h"
#include "obs/span_tracer.h"
#include "rl/policy_gradient_trainer.h"

namespace lsg {
namespace {

Status CheckServable(const LearnedSqlGenOptions& options) {
  if (options.trainer.batch_size < 1) {
    return Status::InvalidArgument("trainer.batch_size must be at least 1");
  }
  if (options.trainer.net.extra_input_dims != 0) {
    return Status::InvalidArgument(
        "LearnedSqlGen never feeds constraint features to its model "
        "(trainer.net.extra_input_dims must be 0)");
  }
  return Status::Ok();
}

}  // namespace

LearnedSqlGen::LearnedSqlGen(std::shared_ptr<const DatabaseContext> context,
                             const LearnedSqlGenOptions& options)
    : context_(std::move(context)), options_(options) {}

StatusOr<std::shared_ptr<const DatabaseContext>> LearnedSqlGen::CreateContext(
    const Database* db, const LearnedSqlGenOptions& options) {
  LSG_RETURN_IF_ERROR(CheckServable(options));
  return DatabaseContext::Create(db, options.vocab);
}

StatusOr<std::unique_ptr<LearnedSqlGen>> LearnedSqlGen::Create(
    std::shared_ptr<const DatabaseContext> context,
    const LearnedSqlGenOptions& options) {
  if (context == nullptr) {
    return Status::InvalidArgument("LearnedSqlGen needs a database context");
  }
  LSG_RETURN_IF_ERROR(CheckServable(options));
  if (options.vocab != context->vocab_options()) {
    return Status::InvalidArgument(
        "pipeline vocabulary options differ from its context's");
  }
  return std::unique_ptr<LearnedSqlGen>(
      new LearnedSqlGen(std::move(context), options));
}

StatusOr<std::unique_ptr<LearnedSqlGen>> LearnedSqlGen::Create(
    const Database* db, const LearnedSqlGenOptions& options) {
  LSG_ASSIGN_OR_RETURN(std::shared_ptr<const DatabaseContext> context,
                       CreateContext(db, options));
  return Create(std::move(context), options);
}

EnvironmentOptions LearnedSqlGen::BuildEnvOptions() const {
  EnvironmentOptions env_opts;
  env_opts.profile = options_.profile;
  env_opts.feedback = options_.feedback;
  env_opts.dense_partial_rewards = options_.dense_partial_rewards;
  return env_opts;
}

void LearnedSqlGen::Publish(std::unique_ptr<PolicyNetwork> actor,
                            const Constraint& constraint,
                            double train_seconds) {
  // Served weights are only read: drop what training wrote into.
  for (ParamTensor* p : actor->Params()) p->ReleaseGradient();
  auto snap = std::make_shared<ServingSnapshot>();
  snap->context = context_;
  snap->actor = std::move(actor);
  snap->env_opts = BuildEnvOptions();
  snap->constraint = constraint;
  snap->attempts_factor = options_.attempts_factor;
  snap->train_seconds = train_seconds;
  snapshot_ = std::move(snap);
}

Status LearnedSqlGen::Train(const Constraint& constraint) {
  LSG_OBS_SPAN("gen.train");
  snapshot_.reset();
  trace_.clear();
  const int epochs = options_.train_epochs;
  SqlGenEnvironment env(*context_, constraint, BuildEnvOptions());
  Stopwatch watch;

  // Mixed-feedback curriculum: the final ceil(epochs · true_feedback_tail)
  // epochs flip the environment to execution-grounded feedback. Epochs
  // before the switch keep the estimator signal.
  int switch_epoch = epochs;
  if (options_.feedback != FeedbackSource::kTrueExecution &&
      options_.true_feedback_tail > 0.0) {
    const double frac = std::min(options_.true_feedback_tail, 1.0);
    const int tail = std::min(
        epochs, static_cast<int>(std::ceil(epochs * frac)));
    switch_epoch = epochs - tail;
  }
  // Served models train without a critic: REINFORCE with the batch's
  // standardized reward-to-go as its baseline is as accurate at serving
  // budgets and takes about half the epoch time (DESIGN.md §4b item 6). The
  // trainer dies with this call, leaving only its actor (and its sampling
  // stream) behind.
  PolicyGradientTrainer trainer(&env, options_.trainer,
                                /*with_critic=*/false);
  for (int e = 0; e < epochs; ++e) {
    if (e == switch_epoch &&
        env.feedback_source() != FeedbackSource::kTrueExecution) {
      env.SetFeedbackSource(FeedbackSource::kTrueExecution);
      LSG_LOG(Info) << "epoch " << e << ": switching to execution-grounded "
                    << "feedback (vectorized engine)";
    }
    LSG_ASSIGN_OR_RETURN(EpochStats st, trainer.TrainEpoch());
    st.true_execution_feedback =
        env.feedback_source() == FeedbackSource::kTrueExecution;
    trace_.push_back(st);
  }
  // Inference uses the best checkpoint seen during training (guards
  // against late-training policy collapse).
  trainer.RestoreBestActor();
  rng_ = *trainer.sampling_rng();
  Publish(trainer.ReleaseActor(), constraint, watch.ElapsedSeconds());
  return Status::Ok();
}

Status LearnedSqlGen::SaveModel(const std::string& path) const {
  if (snapshot_ == nullptr) {
    return Status::FailedPrecondition("no trained model to save");
  }
  return SaveParams(snapshot_->actor->Params(), path);
}

Status LearnedSqlGen::LoadModel(const Constraint& constraint,
                                const std::string& path) {
  snapshot_.reset();
  trace_.clear();
  // Only the shape is built: LoadParams overwrites every tensor (or
  // rejects a file whose names or shapes differ), so nothing is drawn.
  auto actor = std::make_unique<PolicyNetwork>(
      context_->vocab().size(), options_.trainer.net, /*init=*/nullptr);
  LSG_RETURN_IF_ERROR(LoadParams(actor->Params(), path));
  rng_ = Rng(options_.trainer.seed);
  Publish(std::move(actor), constraint, /*train_seconds=*/0.0);
  return Status::Ok();
}

StatusOr<GenerationReport> LearnedSqlGen::Generate(int n, bool batch,
                                                   Rng* rng) {
  if (snapshot_ == nullptr) {
    return Status::FailedPrecondition("call Train or LoadModel first");
  }
  return Decode(*snapshot_, snapshot_->constraint, n, batch,
                rng != nullptr ? rng : &rng_);
}

StatusOr<GenerationReport> LearnedSqlGen::GenerateSatisfied(int n) {
  return GenerateSatisfied(n, nullptr);
}

StatusOr<GenerationReport> LearnedSqlGen::GenerateSatisfied(int n, Rng* rng) {
  LSG_OBS_SPAN("gen.generate_satisfied");
  return Generate(n, /*batch=*/false, rng);
}

StatusOr<GenerationReport> LearnedSqlGen::GenerateBatch(int n) {
  return GenerateBatch(n, nullptr);
}

StatusOr<GenerationReport> LearnedSqlGen::GenerateBatch(int n, Rng* rng) {
  LSG_OBS_SPAN("gen.generate_batch");
  return Generate(n, /*batch=*/true, rng);
}

}  // namespace lsg
