#ifndef LEARNEDSQLGEN_RL_POLICY_NETWORK_H_
#define LEARNEDSQLGEN_RL_POLICY_NETWORK_H_

#include <cstdint>
#include <vector>

#include "nn/adam.h"
#include "nn/linear.h"
#include "nn/lstm.h"

namespace lsg {

/// Shared architecture knobs for the actor and critic (paper §7.1: 2-layer
/// LSTM with 30 cell units, dropout 0.3, lr 1e-3 actor / 3e-3 critic).
struct NetworkOptions {
  int hidden_dim = 30;
  int num_layers = 2;
  float dropout = 0.3f;
  uint64_t seed = 7;
  /// Extra dense input dims appended after the one-hot token (AC-extend
  /// encodes the constraint bounds this way; 0 for the standard model).
  int extra_input_dims = 0;
};

/// InvalidArgument unless `extra` has options.extra_input_dims entries: a
/// network never pads or truncates the feature tail it was built for.
Status CheckExtraFeatures(const std::vector<float>& extra,
                          const NetworkOptions& options);

/// The actor: one-hot token sequence -> LSTM stack -> Linear(|A|) ->
/// FSM-masked softmax policy π_θ(a|s) (paper §4.3). Its only state is its
/// weights: the step is const and takes its dropout stream, distribution
/// and scratch from the caller, so a served actor is immutable by type.
class PolicyNetwork {
 public:
  /// Draws the initial weights from `init` (Glorot-uniform, Matrix::Xavier;
  /// options.seed is not read); a trainer keeps that stream as the actor's
  /// dropout stream (TrainingActor). A null `init` draws nothing and leaves
  /// the weights zero, a shape for LoadParams to fill.
  PolicyNetwork(int vocab_size, const NetworkOptions& options, Rng* init);

  int vocab_size() const { return vocab_size_; }
  /// Input index used for the beginning-of-sequence step.
  int bos_index() const { return vocab_size_; }

  /// Masked action distribution of one step, stored on the FSM-valid
  /// support only: probs[k] is the probability of vocabulary index idx[k].
  /// Tokens outside the mask have probability exactly +0.0 and contribute
  /// nothing to the softmax sums, a sampling walk, the entropy or the
  /// policy gradient, so this is the whole distribution — the network
  /// never scores a token the grammar forbids.
  struct CompactDistribution {
    std::vector<int> idx;      ///< masked vocabulary indices, ascending
    std::vector<float> probs;  ///< probabilities over idx
  };

  /// Per-episode rollout state; holds everything needed for BPTT.
  struct Episode {
    LstmStack::State state;
    std::vector<LstmStack::StepCache> caches;
    /// Masked π of step t at dists[t]. Storage handed over from an earlier
    /// episode may hold more entries than steps (RolloutPolicy).
    std::vector<CompactDistribution> dists;
    std::vector<int> actions;
    std::vector<float> extra;                ///< dense constraint dims
    bool train = false;
  };

  /// Scratch of one step, owned by the caller, so one network can serve
  /// many threads lock-free.
  using Workspace = LstmStack::Workspace;

  Episode BeginEpisode(bool train) const;

  /// The one step: advances the LSTM over the previous action (BOS on the
  /// first call) and the episode's feature tail and writes the masked
  /// action distribution for the next step into `*dist`. `admitted` lists
  /// the vocabulary indices the mask admits, ascending and without repeats
  /// (ActionMask::ids). A training episode also keeps the BPTT cache and
  /// draws dropout from `dropout`. InvalidArgument for a feature tail of
  /// the wrong length; kInternal for an empty mask or a degenerate masked
  /// logit row (the episode is then unusable).
  Status Step(Episode* ep, const std::vector<int>& admitted, Rng* dropout,
              CompactDistribution* dist, Workspace* ws) const;

  /// Records the sampled action (must follow Step).
  void RecordAction(Episode* ep, int action) const { ep->actions.push_back(action); }

  /// Samples a vocabulary index from a compact masked distribution; the
  /// consumed RNG stream and the returned token are those of a cumulative
  /// walk over the equivalent full-vocabulary distribution.
  int SampleAction(const CompactDistribution& d, Rng* rng) const;

  /// Accumulates policy-gradient + entropy-regularization gradients for a
  /// finished episode: maximizes Σ_t [A_t log π(a_t|s_t) + λ H(π(·|s_t))]
  /// (Eq. 4). Call optimizer Step() afterwards. Off-mask logits have an
  /// exactly zero gradient, so only the stored support is backpropagated
  /// (Linear::BackwardRows) — bitwise the full-vocabulary backward.
  void AccumulateGradients(const Episode& ep,
                           const std::vector<double>& advantages,
                           double entropy_coef);

  /// Mean policy entropy over the episode's steps (diagnostics).
  static double MeanEntropy(const Episode& ep);

  std::vector<ParamTensor*> Params();
  std::vector<const ParamTensor*> Params() const;

 private:
  /// Projects the admitted head rows of the top hidden state and runs the
  /// compact softmax over them into `*d`.
  Status MaskedHead(const float* top, const std::vector<int>& admitted,
                    CompactDistribution* d) const;

  int vocab_size_;
  NetworkOptions options_;
  LstmStack lstm_;
  Linear head_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_POLICY_NETWORK_H_
