#ifndef LEARNEDSQLGEN_RL_REINFORCE_TRAINER_H_
#define LEARNEDSQLGEN_RL_REINFORCE_TRAINER_H_

#include <functional>
#include <memory>
#include <utility>

#include "nn/adam.h"
#include "rl/policy_network.h"
#include "rl/trajectory.h"

namespace lsg {

/// Hyper-parameters shared by the RL trainers (paper §7.1 defaults).
struct TrainerOptions {
  int batch_size = 8;          ///< trajectories per update (Algorithm 3 l.3)
  double entropy_coef = 0.01;  ///< λ of Eq. 4
  float actor_lr = 1e-3f;
  float critic_lr = 3e-3f;
  double grad_clip = 5.0;
  /// Standardize advantages across each batch before the actor update
  /// (mean 0, stddev 1). An implementation detail on top of the paper's
  /// Algorithm 3 that markedly stabilizes training (see DESIGN.md).
  bool normalize_advantages = true;
  /// Snapshot the actor whenever an epoch achieves the best satisfied
  /// fraction so far; RestoreBestActor() rolls back to it before
  /// inference. Guards against late-training policy collapse.
  bool keep_best_actor = true;
  uint64_t seed = 1234;
  NetworkOptions net;
};

/// Standardizes `adv` in place across all steps of a batch (no-op for
/// fewer than two entries or zero variance).
void NormalizeAdvantages(std::vector<std::vector<double>>* adv);

/// Aggregates over one training epoch (= one batch update).
struct EpochStats {
  int episodes = 0;
  double mean_total_reward = 0.0;  ///< mean Σ_t r_t per trajectory
  double mean_final_reward = 0.0;  ///< mean reward of the completed query
  double mean_entropy = 0.0;
  double satisfied_frac = 0.0;     ///< fraction of episodes meeting C
  /// True when this epoch's rewards came from execution-grounded feedback
  /// (the mixed-feedback curriculum tail) rather than estimator feedback.
  bool true_execution_feedback = false;
};

/// Per-step callbacks through which a critic follows the actor inside
/// RolloutPolicy. Either may be empty.
struct RolloutHooks {
  /// Runs after the actor's step and before sampling, with the token the
  /// actor just consumed (its BOS index first, then each sampled action).
  std::function<void(int input)> after_actor_step;
  /// Runs once the environment has applied `action`.
  std::function<void(int action, double reward)> after_env_step;
};

/// Samples one episode with the policy against the environment into `ep`,
/// a fresh actor->BeginEpisode (a training episode keeps what
/// AccumulateGradients needs). `rng` drives action sampling only.
StatusOr<Trajectory> RolloutPolicy(Environment* env, PolicyNetwork* actor,
                                   PolicyNetwork::Episode* ep, Rng* rng,
                                   const RolloutHooks& hooks = {});

/// Plain REINFORCE (Williams 1992) with reward-to-go coefficients and no
/// baseline — the comparison algorithm of §7.3 / Figure 8. Entropy
/// regularization matches the actor-critic setup so the only difference is
/// the missing critic baseline.
class ReinforceTrainer {
 public:
  ReinforceTrainer(Environment* env, const TrainerOptions& options);

  /// Runs one batch of episodes and applies one gradient update.
  StatusOr<EpochStats> TrainEpoch();

  /// Inference: generates one query with the current policy (no learning).
  StatusOr<Trajectory> Generate();

  /// The trainer's sampling stream; LearnedSqlGen copies it when training
  /// ends, so its default Generate* continue it.
  Rng* sampling_rng() { return &rng_; }

  /// Rolls the actor back to its best checkpoint (keep_best_actor).
  /// Returns false if no checkpoint exists yet.
  bool RestoreBestActor();

  PolicyNetwork& actor() { return *actor_; }
  const PolicyNetwork& actor() const { return *actor_; }
  /// Hands the actor over to the caller once training is done; the
  /// trainer must not be used afterwards.
  std::unique_ptr<PolicyNetwork> ReleaseActor() { return std::move(actor_); }
  const TrainerOptions& options() const { return options_; }

 private:
  Environment* env_;
  TrainerOptions options_;
  Rng rng_;
  std::unique_ptr<PolicyNetwork> actor_;
  std::unique_ptr<Adam> actor_opt_;
  ParamSnapshot best_actor_;
  double best_score_ = -1.0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_REINFORCE_TRAINER_H_
