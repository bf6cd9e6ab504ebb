#ifndef LEARNEDSQLGEN_RL_META_CRITIC_H_
#define LEARNEDSQLGEN_RL_META_CRITIC_H_

#include <memory>
#include <vector>

#include "nn/adam.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "rl/policy_gradient_trainer.h"

namespace lsg {

/// The meta-critic network of §6: a state-value function shared across
/// constraint tasks. It fuses
///   - a state path: the token LSTM (like the per-task critic), and
///   - a constraint encoder: an LSTM over the episode's recent
///     (action, reward) observations, whose hidden state z_t implicitly
///     identifies the task (the constraint determines the rewards, so the
///     triple stream is a task fingerprint — paper: "the outputs of the
///     constraint encoder can potentially describe the task").
/// V(s_t, z_t) = W2 · tanh(W1 · [h_t ; z_t]).
///
/// Simplification vs. the paper: the encoder consumes (a_t, r_t) rather
/// than the full (s_t, a_t, r_t) triple; the state component reaches the
/// value head through the state path, so no information is lost — only the
/// factorization differs (documented in DESIGN.md).
class MetaCritic : public Critic {
 public:
  struct Options {
    int hidden_dim = 30;
    int num_layers = 2;
    float dropout = 0.3f;
    int action_embed_dim = 16;
    int encoder_dim = 16;
    int fusion_dim = 32;
    uint64_t seed = 99;
  };

  MetaCritic(int vocab_size, const Options& options);

  int bos_index() const { return vocab_size_; }

  struct Episode {
    // State path.
    LstmStack::State state;
    std::vector<LstmStack::StepCache> state_caches;
    // Constraint-encoder path.
    std::vector<float> enc_h, enc_c;
    std::vector<LstmCell::Cache> enc_caches;  ///< x = [a_emb ; r]
    std::vector<int> enc_actions;
    // Fusion caches.
    std::vector<std::vector<float>> fuse_in;   ///< [h_top ; z]
    std::vector<std::vector<float>> fuse_mid;  ///< tanh(W1 ·)
    std::vector<float> values;
    bool train = false;
  };

  Episode BeginEpisode(bool train) const;

  /// Feeds the next token into the state path and returns V(s_t, z_t)
  /// using the encoder state accumulated so far.
  float StepValue(Episode* ep, int input_token);

  /// Advances the constraint encoder with the step's (action, reward).
  void ObserveTriple(Episode* ep, int action, double reward);

  /// Accumulates gradients; dvalue[t] = ∂L/∂V_t.
  void AccumulateGradients(const Episode& ep,
                           const std::vector<double>& dvalue);

  /// Critic: over the finished episode (a member episode), each step's
  /// StepValue followed by that step's ObserveTriple; then
  /// AccumulateGradients over it. It takes no constraint features: the
  /// encoder infers the task, so `extra` is ignored.
  StatusOr<std::vector<float>> Score(const Trajectory& traj,
                                     const std::vector<float>& extra) override;
  void Backward(const std::vector<double>& dvalue) override;

  std::vector<ParamTensor*> Params() override;

 private:
  int vocab_size_;
  Options options_;
  Rng rng_;
  LstmStack state_lstm_;
  LstmCell encoder_;
  ParamTensor action_embed_;  ///< (E x |A|+1), token-major
  Linear fuse1_;
  Linear fuse2_;
  LstmStack::Workspace ws_;  ///< StepValue's scratch
  Episode scored_;
};

/// Multi-task pre-training (§6) and fast adaptation driver used by the
/// Figure 9 experiment. Owns one actor per pre-training task and the shared
/// meta-critic.
class MetaCriticTrainer {
 public:
  MetaCriticTrainer(std::vector<Environment*> task_envs,
                    const TrainerOptions& options,
                    const MetaCritic::Options& meta_options);

  /// One pre-training epoch: a batch per task, round-robin, all feeding the
  /// shared meta-critic.
  StatusOr<EpochStats> PretrainEpoch();

  /// Adapts to a new constraint: trains a fresh actor against `new_env`
  /// while continuing to update (and benefit from) the shared meta-critic.
  /// Returns per-epoch stats.
  StatusOr<std::vector<EpochStats>> Adapt(Environment* new_env, int epochs);

  /// Generates one query with the most recently adapted actor.
  StatusOr<Trajectory> GenerateWithAdapted(Environment* env);

 private:
  std::vector<Environment*> task_envs_;
  TrainerOptions options_;
  Rng rng_;
  std::unique_ptr<MetaCritic> meta_;
  std::unique_ptr<Adam> meta_opt_;
  std::vector<TrainingActor> actors_;
  std::unique_ptr<TrainingActor> adapted_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_META_CRITIC_H_
