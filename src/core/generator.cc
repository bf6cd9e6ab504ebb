#include "core/generator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/batch_decoder.h"
#include "nn/serialize.h"
#include "obs/span_tracer.h"

namespace lsg {
namespace {

Status CheckServable(const LearnedSqlGenOptions& options) {
  if (options.trainer.net.extra_input_dims != 0) {
    return Status::InvalidArgument(
        "LearnedSqlGen serves the standard one-hot model only "
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

Status LearnedSqlGen::Train(const Constraint& constraint) {
  return TrainFor(constraint, options_.train_epochs);
}

EnvironmentOptions LearnedSqlGen::BuildEnvOptions() const {
  EnvironmentOptions env_opts;
  env_opts.profile = options_.profile;
  env_opts.feedback = options_.feedback;
  env_opts.dense_partial_rewards = options_.dense_partial_rewards;
  return env_opts;
}

Status LearnedSqlGen::TrainFor(const Constraint& constraint, int epochs) {
  LSG_OBS_SPAN("gen.train");
  EnvironmentOptions env_opts = BuildEnvOptions();
  env_opts_ = env_opts;
  constraint_ = constraint;
  env_ = std::make_unique<SqlGenEnvironment>(*context_, constraint, env_opts);
  ac_trainer_.reset();
  reinforce_trainer_.reset();
  trace_.clear();
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
  auto epoch_begin = [&](int e) {
    if (e == switch_epoch &&
        env_->feedback_source() != FeedbackSource::kTrueExecution) {
      env_->SetFeedbackSource(FeedbackSource::kTrueExecution);
      LSG_LOG(Info) << "epoch " << e << ": switching to execution-grounded "
                    << "feedback (vectorized engine)";
    }
  };
  auto record = [&](EpochStats st) {
    st.true_execution_feedback =
        env_->feedback_source() == FeedbackSource::kTrueExecution;
    trace_.push_back(st);
  };

  if (options_.use_reinforce) {
    reinforce_trainer_ =
        std::make_unique<ReinforceTrainer>(env_.get(), options_.trainer);
    for (int e = 0; e < epochs; ++e) {
      epoch_begin(e);
      auto st = reinforce_trainer_->TrainEpoch();
      if (!st.ok()) return st.status();
      record(*st);
    }
  } else {
    ac_trainer_ =
        std::make_unique<ActorCriticTrainer>(env_.get(), options_.trainer);
    for (int e = 0; e < epochs; ++e) {
      epoch_begin(e);
      auto st = ac_trainer_->TrainEpoch();
      if (!st.ok()) return st.status();
      record(*st);
    }
  }
  // Inference uses the best checkpoint seen during training (guards
  // against late-training policy collapse).
  if (options_.trainer.keep_best_actor) {
    if (ac_trainer_ != nullptr) ac_trainer_->RestoreBestActor();
    if (reinforce_trainer_ != nullptr) reinforce_trainer_->RestoreBestActor();
  }
  env_->ClearExecutionMemo();
  train_seconds_ = watch.ElapsedSeconds();
  return Status::Ok();
}

Status LearnedSqlGen::SaveModel(const std::string& path) const {
  if (ac_trainer_ != nullptr) {
    return SaveParams(std::as_const(*ac_trainer_).actor().Params(), path);
  }
  if (reinforce_trainer_ != nullptr) {
    return SaveParams(std::as_const(*reinforce_trainer_).actor().Params(),
                      path);
  }
  return Status::FailedPrecondition("no trained model to save");
}

Status LearnedSqlGen::LoadModel(const Constraint& constraint,
                                const std::string& path) {
  // Build the trainer (0 epochs = no training) and overwrite its actor.
  LSG_RETURN_IF_ERROR(TrainFor(constraint, 0));
  if (ac_trainer_ != nullptr) {
    return LoadParams(ac_trainer_->actor().Params(), path);
  }
  return LoadParams(reinforce_trainer_->actor().Params(), path);
}

StatusOr<GenerationReport> LearnedSqlGen::Decode(int n, bool batch_mode,
                                                 Rng* rng) {
  LSG_ASSIGN_OR_RETURN(ServingSnapshot snap, MakeServingSnapshot());
  if (rng == nullptr) {
    rng = ac_trainer_ != nullptr ? ac_trainer_->sampling_rng()
                                 : reinforce_trainer_->sampling_rng();
  }
  BatchDecodeItem item;
  item.constraint = snap.constraint;
  item.n = n;
  item.batch_mode = batch_mode;
  item.rng = *rng;
  BatchDecoder(&snap, /*max_lanes=*/1).Run({&item});
  *rng = item.rng;
  if (!item.status.ok()) return item.status;
  return std::move(item.report);
}

StatusOr<GenerationReport> LearnedSqlGen::GenerateSatisfied(int n) {
  return GenerateSatisfied(n, nullptr);
}

StatusOr<GenerationReport> LearnedSqlGen::GenerateSatisfied(int n, Rng* rng) {
  LSG_OBS_SPAN("gen.generate_satisfied");
  return Decode(n, /*batch_mode=*/false, rng);
}

StatusOr<GenerationReport> LearnedSqlGen::GenerateBatch(int n) {
  return GenerateBatch(n, nullptr);
}

StatusOr<GenerationReport> LearnedSqlGen::GenerateBatch(int n, Rng* rng) {
  LSG_OBS_SPAN("gen.generate_batch");
  return Decode(n, /*batch_mode=*/true, rng);
}

StatusOr<ServingSnapshot> LearnedSqlGen::MakeServingSnapshot() const {
  const PolicyNetwork* actor = nullptr;
  if (ac_trainer_ != nullptr) {
    actor = &std::as_const(*ac_trainer_).actor();
  } else if (reinforce_trainer_ != nullptr) {
    actor = &std::as_const(*reinforce_trainer_).actor();
  } else {
    return Status::FailedPrecondition("call Train before snapshotting");
  }
  ServingSnapshot snap;
  snap.context = context_.get();
  snap.actor = actor;
  snap.env_opts = env_opts_;
  snap.constraint = constraint_;
  snap.attempts_factor = options_.attempts_factor;
  snap.train_seconds = train_seconds_;
  snap.trace = &trace_;
  return snap;
}

}  // namespace lsg
