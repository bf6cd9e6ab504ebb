#ifndef LEARNEDSQLGEN_RL_ACTOR_CRITIC_TRAINER_H_
#define LEARNEDSQLGEN_RL_ACTOR_CRITIC_TRAINER_H_

#include <memory>
#include <utility>

#include "nn/adam.h"
#include "rl/reinforce_trainer.h"
#include "rl/value_network.h"

namespace lsg {

/// The paper's main trainer (§4.3, Algorithm 3): actor-critic with TD(0)
/// advantage A(s_t, a_t) = r_t + V(s_{t+1}) − V(s_t) and entropy
/// regularization. The critic's V value is the variance-reducing baseline.
class ActorCriticTrainer {
 public:
  ActorCriticTrainer(Environment* env, const TrainerOptions& options);

  /// Runs one batch of episodes and applies one update to both networks.
  StatusOr<EpochStats> TrainEpoch();

  /// Inference: generates one query with the current policy. The critic is
  /// skipped at inference and consumes no random numbers.
  StatusOr<Trajectory> Generate();

  /// The trainer's sampling stream; LearnedSqlGen copies it when training
  /// ends, so its default Generate* continue it.
  Rng* sampling_rng() { return &rng_; }

  /// Rolls the actor back to its best checkpoint (keep_best_actor).
  bool RestoreBestActor();

  PolicyNetwork& actor() { return *actor_; }
  const PolicyNetwork& actor() const { return *actor_; }
  /// Hands the actor over to the caller once training is done; the
  /// trainer must not be used afterwards.
  std::unique_ptr<PolicyNetwork> ReleaseActor() { return std::move(actor_); }
  ValueNetwork& critic() { return *critic_; }
  const TrainerOptions& options() const { return options_; }

  /// Per-episode constraint features for the AC-extend baseline; empty for
  /// the standard model. Copied into both networks' episodes.
  void set_extra_features(std::vector<float> extra) {
    extra_ = std::move(extra);
  }

  /// Swaps the environment (AC-extend trains one network across multiple
  /// constraint tasks, each with its own environment). The vocab size must
  /// match the construction-time environment.
  void set_environment(Environment* env) { env_ = env; }

 private:
  Environment* env_;
  TrainerOptions options_;
  Rng rng_;
  std::unique_ptr<PolicyNetwork> actor_;
  std::unique_ptr<ValueNetwork> critic_;
  std::unique_ptr<Adam> actor_opt_;
  std::unique_ptr<Adam> critic_opt_;
  std::vector<float> extra_;
  ParamSnapshot best_actor_;
  double best_score_ = -1.0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_ACTOR_CRITIC_TRAINER_H_
