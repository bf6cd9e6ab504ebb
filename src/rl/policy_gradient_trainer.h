#ifndef LEARNEDSQLGEN_RL_POLICY_GRADIENT_TRAINER_H_
#define LEARNEDSQLGEN_RL_POLICY_GRADIENT_TRAINER_H_

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
  uint64_t seed = 1234;
  NetworkOptions net;
};

/// Global L2 norm every update clips the actor's (and a critic's)
/// gradients to.
constexpr double kGradClip = 5.0;

/// Standardizes `adv` in place across all steps of a batch (no-op for
/// fewer than two entries or zero variance). Not in the paper's
/// Algorithm 3; every epoch applies it because it markedly stabilizes
/// training (see DESIGN.md).
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
                                   PolicyNetwork::Workspace* ws, Rng* rng);

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
/// The actor never reads it, so it scores a training episode once the
/// episode is finished.
class Critic {
 public:
  Critic() = default;
  Critic(const Critic&) = delete;
  Critic& operator=(const Critic&) = delete;
  virtual ~Critic() = default;

  /// V(s_t) for each step of the finished training episode `traj`, whose
  /// actor episode carried the constraint features `extra`. The critic is
  /// fed what the actor was fed: BOS, then every action but the last. It
  /// keeps the episode for Backward.
  virtual StatusOr<std::vector<float>> Score(
      const Trajectory& traj, const std::vector<float>& extra) = 0;

  /// Accumulates the gradients of the episode Score last saw,
  /// dvalue[t] = ∂L/∂V(s_t), and drops it.
  virtual void Backward(const std::vector<double>& dvalue) = 0;

  virtual std::vector<ParamTensor*> Params() = 0;
};

/// One policy-gradient epoch (Algorithm 3, one batch update), in two
/// phases. Rollout: options.batch_size training episodes of `actor`
/// against `env`, sampling from `rng`. Learn, under the "rl.ac_update"
/// span (inside the epoch's "rl.ac_epoch"): each episode's rewards become
/// advantages. With a critic they are the TD(0) errors
/// A_t = r_t + V(s_{t+1}) − V(s_t) (terminal V = 0) of the critic's score,
/// and the critic accumulates the gradient of 0.5·A_t² with the target
/// held fixed. Without one (critic and critic_opt null) they are the
/// reward-to-go: plain REINFORCE (Williams 1992), which the serving
/// pipeline trains with and §7.3 compares against. The advantages are
/// standardized across the batch (mean 0, stddev 1), then the actor's
/// gradient (entropy-regularized) is accumulated, actor and critic
/// gradients are clipped, and the actor's optimizer steps, then the
/// critic's. `extra` (constraint features for AC-extend, empty for the
/// standard model) goes into every episode. InvalidArgument when
/// options.batch_size < 1.
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

  /// Rolls the actor back to its best checkpoint: TrainEpoch snapshots
  /// the actor whenever an epoch reaches the best score so far, which
  /// guards against late-training policy collapse. Returns false if no
  /// checkpoint exists yet.
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
