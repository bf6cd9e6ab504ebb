#include "rl/reinforce_trainer.h"

#include <cmath>

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"

namespace lsg {

void NormalizeAdvantages(std::vector<std::vector<double>>* adv) {
  size_t n = 0;
  double sum = 0.0;
  for (const auto& a : *adv) {
    for (double v : a) {
      sum += v;
      ++n;
    }
  }
  if (n < 2) return;
  double mean = sum / static_cast<double>(n);
  double sq = 0.0;
  for (const auto& a : *adv) {
    for (double v : a) sq += (v - mean) * (v - mean);
  }
  double stddev = std::sqrt(sq / static_cast<double>(n));
  if (stddev < 1e-8) return;
  for (auto& a : *adv) {
    for (double& v : a) v = (v - mean) / stddev;
  }
}

StatusOr<Trajectory> RolloutPolicy(Environment* env, PolicyNetwork* actor,
                                   PolicyNetwork::Episode* ep, Rng* rng,
                                   const RolloutHooks& hooks) {
  env->Reset();
  Trajectory traj;
  int input = actor->bos_index();
  for (int step = 0; step < kMaxEpisodeSteps; ++step) {
    const PolicyNetwork::CompactDistribution* dist = nullptr;
    LSG_RETURN_IF_ERROR(actor->Step(ep, env->ValidActions(), &dist));
    if (hooks.after_actor_step) hooks.after_actor_step(input);
    const int a = actor->SampleAction(*dist, rng);
    actor->RecordAction(ep, a);
    auto sr = env->Step(a);
    if (!sr.ok()) return sr.status();
    if (hooks.after_env_step) hooks.after_env_step(a, sr->reward);
    traj.actions.push_back(a);
    traj.rewards.push_back(sr->reward);
    input = a;
    if (sr->done) {
      traj.completed = true;
      traj.satisfied = sr->satisfied;
      traj.final_metric = sr->metric;
      traj.ast = env->TakeAst();
      return traj;
    }
  }
  return Status::Internal("episode exceeded the hard step cap");
}

ReinforceTrainer::ReinforceTrainer(Environment* env,
                                   const TrainerOptions& options)
    : env_(env), options_(options), rng_(options.seed) {
  LSG_CHECK(env != nullptr);
  NetworkOptions net = options.net;
  net.seed = options.seed;
  actor_ = std::make_unique<PolicyNetwork>(env->vocab_size(), net);
  actor_opt_ = std::make_unique<Adam>(actor_->Params(), options.actor_lr);
}

StatusOr<EpochStats> ReinforceTrainer::TrainEpoch() {
  LSG_OBS_SPAN("rl.reinforce_epoch");
  EpochStats stats;
  std::vector<PolicyNetwork::Episode> episodes(options_.batch_size);
  std::vector<std::vector<double>> advantages(options_.batch_size);
  for (int b = 0; b < options_.batch_size; ++b) {
    episodes[b] = actor_->BeginEpisode(/*train=*/true);
    auto traj = RolloutPolicy(env_, actor_.get(), &episodes[b], &rng_);
    if (!traj.ok()) return traj.status();
    advantages[b] = traj->RewardToGo();
    stats.episodes += 1;
    stats.mean_total_reward += traj->TotalReward();
    stats.mean_final_reward +=
        traj->rewards.empty() ? 0.0 : traj->rewards.back();
    stats.mean_entropy += PolicyNetwork::MeanEntropy(episodes[b]);
    stats.satisfied_frac += traj->satisfied ? 1.0 : 0.0;
  }
  if (options_.normalize_advantages) NormalizeAdvantages(&advantages);
  {
    LSG_OBS_SPAN("rl.reinforce_update");
    for (int b = 0; b < options_.batch_size; ++b) {
      actor_->AccumulateGradients(episodes[b], advantages[b],
                                  options_.entropy_coef);
    }
    ClipGradNorm(actor_->Params(), options_.grad_clip);
    actor_opt_->Step();
  }
  const double n = static_cast<double>(stats.episodes);
  stats.mean_total_reward /= n;
  stats.mean_final_reward /= n;
  stats.mean_entropy /= n;
  stats.satisfied_frac /= n;
  if (options_.keep_best_actor) {
    double score = stats.satisfied_frac + 0.01 * stats.mean_final_reward;
    if (score > best_score_) {
      best_score_ = score;
      best_actor_.Save(actor_->Params());
    }
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    static obs::Counter& epochs = reg.GetCounter("rl.epochs");
    static obs::Counter& episodes = reg.GetCounter("rl.episodes");
    epochs.Inc();
    episodes.Add(static_cast<uint64_t>(stats.episodes));
    reg.GetGauge("rl.mean_total_reward").Set(stats.mean_total_reward);
    reg.GetGauge("rl.satisfied_frac").Set(stats.satisfied_frac);
    reg.GetGauge("rl.mean_entropy").Set(stats.mean_entropy);
  }
  return stats;
}

bool ReinforceTrainer::RestoreBestActor() {
  return best_actor_.Restore(actor_->Params());
}

StatusOr<Trajectory> ReinforceTrainer::Generate() {
  PolicyNetwork::Episode ep = actor_->BeginEpisode(/*train=*/false);
  return RolloutPolicy(env_, actor_.get(), &ep, &rng_);
}

}  // namespace lsg
