#include "rl/policy_gradient_trainer.h"

#include <cmath>

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"
#include "rl/value_network.h"

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

StatusOr<Trajectory> RolloutPolicy(Environment* env,
                                   const PolicyNetwork& actor,
                                   PolicyNetwork::Episode* ep, Rng* dropout,
                                   PolicyNetwork::Workspace* ws, Rng* rng) {
  return RunEpisode(env, [&](const ActionMask& mask) -> StatusOr<int> {
    const size_t t = ep->actions.size();
    if (ep->dists.size() == t) ep->dists.emplace_back();
    PolicyNetwork::CompactDistribution& dist = ep->dists[t];
    LSG_RETURN_IF_ERROR(actor.Step(ep, mask.ids, dropout, &dist, ws));
    const int a = actor.SampleAction(dist, rng);
    actor.RecordAction(ep, a);
    return a;
  });
}

namespace {
// The actor's weight draw, under its own span so that a training's
// breakdown accounts for it.
std::unique_ptr<PolicyNetwork> DrawActor(int vocab_size,
                                         const NetworkOptions& options,
                                         Rng* init) {
  LSG_OBS_SPAN("rl.init");
  return std::make_unique<PolicyNetwork>(vocab_size, options, init);
}
}  // namespace

TrainingActor::TrainingActor(int vocab_size, const NetworkOptions& options,
                             uint64_t seed, float lr)
    : dropout(seed),
      net(DrawActor(vocab_size, options, &dropout)),
      opt(net->Params(), lr) {}

StatusOr<EpochStats> TrainPolicyBatch(Environment* env, TrainingActor* actor,
                                      Critic* critic, Adam* critic_opt,
                                      Rng* rng, const TrainerOptions& options,
                                      const std::vector<float>& extra) {
  LSG_CHECK((critic == nullptr) == (critic_opt == nullptr));
  if (options.batch_size < 1) {
    return Status::InvalidArgument("trainer.batch_size must be at least 1");
  }
  // One span pair for every trainer, with or without a critic: read
  // "rl.ac_*" as "policy-gradient epoch / update" (the end-to-end
  // benchmark reads these names).
  LSG_OBS_SPAN("rl.ac_epoch");
  EpochStats stats;
  std::vector<PolicyNetwork::Episode> episodes(options.batch_size);
  std::vector<Trajectory> trajs(options.batch_size);
  for (int b = 0; b < options.batch_size; ++b) {
    episodes[b] = actor->net->BeginEpisode(/*train=*/true);
    episodes[b].extra = extra;
    LSG_ASSIGN_OR_RETURN(trajs[b], RolloutPolicy(env, *actor->net,
                                                 &episodes[b], &actor->dropout,
                                                 &actor->ws, rng));
    const Trajectory& traj = trajs[b];
    stats.episodes += 1;
    stats.mean_total_reward += traj.TotalReward();
    stats.mean_final_reward += traj.rewards.empty() ? 0.0 : traj.rewards.back();
    stats.mean_entropy += PolicyNetwork::MeanEntropy(episodes[b]);
    stats.satisfied_frac += traj.satisfied ? 1.0 : 0.0;
  }
  {
    LSG_OBS_SPAN("rl.ac_update");
    std::vector<std::vector<double>> advantages(options.batch_size);
    for (int b = 0; b < options.batch_size; ++b) {
      const Trajectory& traj = trajs[b];
      if (critic == nullptr) {
        advantages[b] = traj.RewardToGo();
        continue;
      }
      LSG_ASSIGN_OR_RETURN(const std::vector<float> values,
                           critic->Score(traj, extra));
      const size_t T = traj.rewards.size();
      LSG_CHECK(values.size() == T);
      // TD(0): td_t = r_t + V(s_{t+1}) − V(s_t), terminal V = 0.
      std::vector<double>& advantage = advantages[b];
      advantage.resize(T);
      std::vector<double> dvalue(T);
      for (size_t t = 0; t < T; ++t) {
        double v_next = (t + 1 < T) ? values[t + 1] : 0.0;
        double td = traj.rewards[t] + v_next - values[t];
        advantage[t] = td;
        dvalue[t] = -td;  // ∂ 0.5·td² / ∂V(s_t), target fixed
      }
      critic->Backward(dvalue);
    }
    NormalizeAdvantages(&advantages);
    for (int b = 0; b < options.batch_size; ++b) {
      actor->net->AccumulateGradients(episodes[b], advantages[b],
                                      options.entropy_coef);
    }
    ClipGradNorm(actor->net->Params(), kGradClip);
    if (critic != nullptr) ClipGradNorm(critic->Params(), kGradClip);
    actor->opt.Step();
    if (critic_opt != nullptr) critic_opt->Step();
  }
  const double n = static_cast<double>(stats.episodes);
  stats.mean_total_reward /= n;
  stats.mean_final_reward /= n;
  stats.mean_entropy /= n;
  stats.satisfied_frac /= n;
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    static obs::Counter& epochs = reg.GetCounter("rl.epochs");
    static obs::Counter& episodes_total = reg.GetCounter("rl.episodes");
    epochs.Inc();
    episodes_total.Add(static_cast<uint64_t>(stats.episodes));
    reg.GetGauge("rl.mean_total_reward").Set(stats.mean_total_reward);
    reg.GetGauge("rl.satisfied_frac").Set(stats.satisfied_frac);
    reg.GetGauge("rl.mean_entropy").Set(stats.mean_entropy);
  }
  return stats;
}

PolicyGradientTrainer::PolicyGradientTrainer(Environment* env,
                                             const TrainerOptions& options,
                                             bool with_critic)
    : env_(env),
      options_(options),
      rng_(options.seed),
      actor_(env->vocab_size(), options.net, options.seed, options.actor_lr) {
  if (with_critic) {
    NetworkOptions net = options.net;
    net.seed = options.seed + 1;
    critic_ = std::make_unique<ValueNetwork>(env->vocab_size(), net);
    critic_opt_ = std::make_unique<Adam>(critic_->Params(), options.critic_lr);
  }
}

StatusOr<EpochStats> PolicyGradientTrainer::TrainEpoch() {
  LSG_ASSIGN_OR_RETURN(
      EpochStats stats,
      TrainPolicyBatch(env_, &actor_, critic_.get(), critic_opt_.get(), &rng_,
                       options_, extra_));
  double score = stats.satisfied_frac + 0.01 * stats.mean_final_reward;
  if (score > best_score_) {
    best_score_ = score;
    best_actor_.Save(actor_.net->Params());
  }
  return stats;
}

bool PolicyGradientTrainer::RestoreBestActor() {
  return best_actor_.Restore(actor_.net->Params());
}

StatusOr<Trajectory> PolicyGradientTrainer::Generate() {
  PolicyNetwork::Episode ep = actor_.net->BeginEpisode(/*train=*/false);
  ep.extra = extra_;
  return RolloutPolicy(env_, *actor_.net, &ep, /*dropout=*/nullptr,
                       &actor_.ws, &rng_);
}

}  // namespace lsg
