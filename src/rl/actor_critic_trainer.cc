#include "rl/actor_critic_trainer.h"

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"

namespace lsg {

ActorCriticTrainer::ActorCriticTrainer(Environment* env,
                                       const TrainerOptions& options)
    : env_(env), options_(options), rng_(options.seed) {
  LSG_CHECK(env != nullptr);
  NetworkOptions net = options.net;
  net.seed = options.seed;
  actor_ = std::make_unique<PolicyNetwork>(env->vocab_size(), net);
  net.seed = options.seed + 1;
  critic_ = std::make_unique<ValueNetwork>(env->vocab_size(), net);
  actor_opt_ = std::make_unique<Adam>(actor_->Params(), options.actor_lr);
  critic_opt_ = std::make_unique<Adam>(critic_->Params(), options.critic_lr);
}

StatusOr<EpochStats> ActorCriticTrainer::TrainEpoch() {
  LSG_OBS_SPAN("rl.ac_epoch");
  EpochStats stats;
  std::vector<PolicyNetwork::Episode> actor_eps(options_.batch_size);
  std::vector<std::vector<double>> advantages(options_.batch_size);
  for (int b = 0; b < options_.batch_size; ++b) {
    actor_eps[b] = actor_->BeginEpisode(/*train=*/true);
    actor_eps[b].extra = extra_;
    ValueNetwork::Episode critic_ep = critic_->BeginEpisode(/*train=*/true);
    critic_ep.extra = extra_;
    RolloutHooks hooks;
    hooks.after_actor_step = [&](int input) {
      critic_->StepValue(&critic_ep, input);  // V(s_t)
    };
    auto traj = RolloutPolicy(env_, actor_.get(), &actor_eps[b], &rng_, hooks);
    if (!traj.ok()) return traj.status();
    const size_t T = traj->rewards.size();
    LSG_CHECK(critic_ep.values.size() == T);
    // TD(0): td_t = r_t + V(s_{t+1}) − V(s_t), terminal V = 0.
    std::vector<double> advantage(T);
    std::vector<double> dvalue(T);
    for (size_t t = 0; t < T; ++t) {
      double v_next = (t + 1 < T) ? critic_ep.values[t + 1] : 0.0;
      double td = traj->rewards[t] + v_next - critic_ep.values[t];
      advantage[t] = td;
      dvalue[t] = -td;  // ∂ 0.5·td² / ∂V(s_t), target fixed
    }
    advantages[b] = std::move(advantage);
    critic_->AccumulateGradients(critic_ep, dvalue);
    stats.episodes += 1;
    stats.mean_total_reward += traj->TotalReward();
    stats.mean_final_reward +=
        traj->rewards.empty() ? 0.0 : traj->rewards.back();
    stats.mean_entropy += PolicyNetwork::MeanEntropy(actor_eps[b]);
    stats.satisfied_frac += traj->satisfied ? 1.0 : 0.0;
  }
  if (options_.normalize_advantages) NormalizeAdvantages(&advantages);
  {
    LSG_OBS_SPAN("rl.ac_update");
    for (int b = 0; b < options_.batch_size; ++b) {
      actor_->AccumulateGradients(actor_eps[b], advantages[b],
                                  options_.entropy_coef);
    }
    ClipGradNorm(actor_->Params(), options_.grad_clip);
    ClipGradNorm(critic_->Params(), options_.grad_clip);
    actor_opt_->Step();
    critic_opt_->Step();
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

bool ActorCriticTrainer::RestoreBestActor() {
  return best_actor_.Restore(actor_->Params());
}

StatusOr<Trajectory> ActorCriticTrainer::Generate() {
  PolicyNetwork::Episode ep = actor_->BeginEpisode(/*train=*/false);
  ep.extra = extra_;
  return RolloutPolicy(env_, actor_.get(), &ep, &rng_);
}

}  // namespace lsg
