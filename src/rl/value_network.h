#ifndef LEARNEDSQLGEN_RL_VALUE_NETWORK_H_
#define LEARNEDSQLGEN_RL_VALUE_NETWORK_H_

#include <cstdint>
#include <vector>

#include "nn/linear.h"
#include "nn/lstm.h"
#include "rl/policy_gradient_trainer.h"
#include "rl/policy_network.h"

namespace lsg {

/// The critic: mirrors the actor's LSTM but outputs a single state value
/// V_φ(s_t) (paper §4.3: "the structure of the critic network is similar to
/// the actor, but the output layer dimension is 1").
class ValueNetwork : public Critic {
 public:
  ValueNetwork(int vocab_size, const NetworkOptions& options);

  int bos_index() const { return vocab_size_; }

  struct Episode {
    LstmStack::State state;
    std::vector<LstmStack::StepCache> caches;
    std::vector<float> values;   ///< V(s_t) per step
    std::vector<int> inputs;     ///< tokens fed (BOS first)
    std::vector<float> extra;
    bool train = false;
  };

  Episode BeginEpisode(bool train) const;

  /// Feeds the next input token (use bos_index() for the first call, then
  /// the actions chosen by the actor) and the episode's feature tail, and
  /// returns V of the resulting state. InvalidArgument for a feature tail
  /// of the wrong length.
  StatusOr<float> StepValue(Episode* ep, int input_token);

  /// Accumulates TD-error critic gradients: minimizes
  /// Σ_t 0.5·(r_t + V(s_{t+1}) − V(s_t))² with the target held fixed;
  /// dvalue[t] is ∂L/∂V(s_t) = −td_t.
  void AccumulateGradients(const Episode& ep,
                           const std::vector<double>& dvalue);

  /// Critic: StepValue over the finished episode (a member episode),
  /// then AccumulateGradients over it.
  StatusOr<std::vector<float>> Score(const Trajectory& traj,
                                     const std::vector<float>& extra) override;
  void Backward(const std::vector<double>& dvalue) override;

  std::vector<ParamTensor*> Params() override;

 private:
  int vocab_size_;
  NetworkOptions options_;
  Rng rng_;
  LstmStack lstm_;
  Linear head_;
  LstmStack::Workspace ws_;  ///< StepValue's scratch
  Episode scored_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_RL_VALUE_NETWORK_H_
