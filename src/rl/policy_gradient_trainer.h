#ifndef LEARNEDSQLGEN_RL_POLICY_GRADIENT_TRAINER_H_
#define LEARNEDSQLGEN_RL_POLICY_GRADIENT_TRAINER_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

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
  /// A failed status ends the rollout with it.
  std::function<Status(int input)> after_actor_step;
  /// Runs once the environment has applied `action`.
  std::function<void(int action, double reward)> after_env_step;
};

/// The policy's episode: RunEpisode with each action sampled (from `rng`)
/// from the const `actor`'s masked distribution. `ep` is a fresh
/// actor.BeginEpisode. Step t's distribution goes to ep->dists[t], which
/// grows only when it is shorter, so a caller that hands the same storage
/// to episode after episode stops allocating for it. A training episode
/// also keeps its BPTT caches and draws its dropout from `dropout` (an
/// inference episode draws none). `ws` is the step's scratch. Training,
/// evaluation and serving decode all roll out here.
StatusOr<Trajectory> RolloutPolicy(Environment* env,
                                   const PolicyNetwork& actor,
                                   PolicyNetwork::Episode* ep, Rng* dropout,
                                   PolicyNetwork::Workspace* ws, Rng* rng,
                                   const RolloutHooks& hooks = {});

/// An actor in training and what its rollouts own around it: the stream
/// its weights were drawn from (Rng(seed), which then drives its dropout),
/// the step's scratch and the optimizer.
struct TrainingActor {
  TrainingActor(int vocab_size, const NetworkOptions& options, uint64_t seed,
                float lr);

  Rng dropout;
  std::unique_ptr<PolicyNetwork> net;
  PolicyNetwork::Workspace ws;
  Adam opt;
};

/// A learned state-value baseline V(s_t): the per-task critic of §4.3
/// (ValueNetwork) or the meta-critic shared across tasks (§6, MetaCritic).
/// It follows one training episode at a time through RolloutHooks.
class Critic {
 public:
  Critic() = default;
  Critic(const Critic&) = delete;
  Critic& operator=(const Critic&) = delete;
  virtual ~Critic() = default;

  /// Starts following a fresh training episode whose actor episode carries
  /// the constraint features `extra`; the hooks feed it from RolloutPolicy.
  virtual RolloutHooks FollowEpisode(const std::vector<float>& extra) = 0;

  /// V(s_t) for each step of the followed episode so far.
  virtual const std::vector<float>& episode_values() const = 0;

  /// Accumulates the followed episode's gradients, dvalue[t] = ∂L/∂V(s_t),
  /// and ends it.
  virtual void AccumulateEpisodeGradients(
      const std::vector<double>& dvalue) = 0;

  virtual std::vector<ParamTensor*> Params() = 0;
};

/// One policy-gradient epoch (Algorithm 3, one batch update): rolls out
/// options.batch_size training episodes of `actor` against `env`, sampling
/// from `rng`, and turns each episode's rewards into advantages. With a
/// critic they are the TD(0) errors A_t = r_t + V(s_{t+1}) − V(s_t)
/// (terminal V = 0), and the critic accumulates the gradient of
/// 0.5·A_t² with the target held fixed. Without one (critic and
/// critic_opt null) they are the reward-to-go: plain REINFORCE (Williams
/// 1992), which the serving pipeline trains with and §7.3 compares against.
/// Either way the epoch records one "rl.ac_epoch" span around one
/// "rl.ac_update" span. Then it accumulates the actor's gradient
/// (entropy-regularized), clips actor and critic gradients, and steps the
/// actor's optimizer, then the critic's. `extra` (constraint features for
/// AC-extend, empty for the standard model) goes into every episode.
/// InvalidArgument when options.batch_size < 1.
StatusOr<EpochStats> TrainPolicyBatch(Environment* env, TrainingActor* actor,
                                      Critic* critic, Adam* critic_opt,
                                      Rng* rng, const TrainerOptions& options,
                                      const std::vector<float>& extra = {});

/// The paper's trainer (§4.3, Algorithm 3): an actor and its own critic
/// (a ValueNetwork), whose V value is the variance-reducing baseline — or,
/// built without a critic, plain REINFORCE (what LearnedSqlGen::Train
/// serves). Entropy regularization is the same either way, so the baseline
/// is the only difference.
class PolicyGradientTrainer {
 public:
  PolicyGradientTrainer(Environment* env, const TrainerOptions& options,
                        bool with_critic = true);

  /// Runs one batch of episodes and applies one update (TrainPolicyBatch).
  StatusOr<EpochStats> TrainEpoch();

  /// Inference: generates one query with the current policy. The critic is
  /// skipped at inference and consumes no random numbers.
  StatusOr<Trajectory> Generate();

  /// The trainer's sampling stream; LearnedSqlGen copies it when training
  /// ends, so its default Generate* continue it.
  Rng* sampling_rng() { return &rng_; }

  /// Rolls the actor back to its best checkpoint (keep_best_actor).
  /// Returns false if no checkpoint exists yet.
  bool RestoreBestActor();

  PolicyNetwork& actor() { return *actor_.net; }
  /// Hands the actor over to the caller once training is done; the
  /// trainer must not be used afterwards.
  std::unique_ptr<PolicyNetwork> ReleaseActor() {
    return std::move(actor_.net);
  }
  /// The critic; null for REINFORCE.
  Critic* critic() { return critic_.get(); }

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
  TrainingActor actor_;
  std::unique_ptr<Critic> critic_;
  std::unique_ptr<Adam> critic_opt_;
  std::vector<float> extra_;
  ParamSnapshot best_actor_;
  double best_score_ = -1.0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_POLICY_GRADIENT_TRAINER_H_
