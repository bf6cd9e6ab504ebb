#ifndef LEARNEDSQLGEN_NN_LSTM_H_
#define LEARNEDSQLGEN_NN_LSTM_H_

#include <vector>

#include "nn/matrix.h"

namespace lsg {

/// One LSTM cell with standard gates (input, forget, cell, output). Inputs
/// may be dense vectors or one-hot indices (the token encoding of §4.1);
/// the one-hot path touches only a single column of Wx in both passes, so
/// only the columns of tokens actually fed go live for the optimizer.
class LstmCell {
 public:
  LstmCell(int input_dim, int hidden_dim, Rng* rng);

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

  /// Per-step activations retained for BPTT. A reused cache keeps its
  /// buffers, so a step into it allocates nothing.
  struct Cache {
    int onehot = -1;               ///< one-hot index, or -1 for dense input
    std::vector<float> x;          ///< dense input (empty when one-hot)
    std::vector<float> h_prev, c_prev;
    /// The 4H gate pre-activations, overwritten in place by the
    /// post-activation gates i | f | g | o.
    std::vector<float> gates;
    std::vector<float> c, h;
    std::vector<float> tanh_c;     ///< tanh(c), the factor of h = o * tanh(c)
  };

  /// Dense-input step.
  void Forward(const float* x, const float* h_prev, const float* c_prev,
               Cache* cache) const;

  /// One-hot-input step (x = e_idx).
  void ForwardOneHot(int idx, const float* h_prev, const float* c_prev,
                     Cache* cache) const;

  /// Inference-only batched one-hot step over `batch` independent lanes.
  /// All panels are feature-major ([feature][lane], lane index contiguous):
  /// h_prev/c_prev/h_out/c_out are (H x batch), idx[b] is lane b's token.
  /// Each lane's arithmetic runs in the same per-element order as
  /// ForwardOneHot, so results are bitwise-identical to the scalar step.
  void ForwardOneHotBatch(const int* idx, const float* h_prev,
                          const float* c_prev, int batch, float* h_out,
                          float* c_out) const;

  /// Dense-input batched step (x_panel is input_dim x batch, feature-major).
  void ForwardBatch(const float* x_panel, const float* h_prev,
                    const float* c_prev, int batch, float* h_out,
                    float* c_out) const;

  /// Backward through one step. `dh`/`dc` are gradients flowing into this
  /// step's outputs; `dh_prev`/`dc_prev` receive (overwrite) gradients for
  /// the previous step; `dx_or_null` accumulates input gradients (skipped
  /// for one-hot inputs — tokens are not learnable).
  void Backward(const Cache& cache, const float* dh, const float* dc,
                float* dh_prev, float* dc_prev, float* dx_or_null);

  std::vector<ParamTensor*> Params() { return {&wx_, &wh_, &b_}; }
  std::vector<const ParamTensor*> Params() const { return {&wx_, &wh_, &b_}; }

 private:
  void Gates(Cache* cache) const;
  void GatesBatch(const float* pre, const float* c_prev, int batch,
                  float* h_out, float* c_out) const;

  int input_dim_;
  int hidden_dim_;
  ParamTensor wx_;  ///< (4H x In)
  ParamTensor wh_;  ///< (4H x H)
  ParamTensor b_;   ///< (4H x 1)
  std::vector<float> dpre_;  ///< Backward's gate-gradient scratch (4H)
};

/// A stack of LSTM cells with inverted dropout between layers (the paper:
/// 2-layer LSTM, 30 cell units, dropout 0.3).
class LstmStack {
 public:
  LstmStack(int input_dim, int hidden_dim, int num_layers, float dropout,
            Rng* rng);

  int hidden_dim() const { return hidden_dim_; }
  int num_layers() const { return static_cast<int>(cells_.size()); }

  /// Recurrent state: h and c per layer.
  struct State {
    std::vector<std::vector<float>> h, c;
  };

  /// All caches for one timestep.
  struct StepCache {
    std::vector<LstmCell::Cache> layers;
    /// Per inter-layer link; empty when the step ran without dropout.
    std::vector<std::vector<float>> dropout_mask;
  };

  State InitialState() const;

  /// Advances one token. Updates `state` in place; fills `cache` when
  /// non-null (training); applies dropout only when `train` is true.
  /// Returns a pointer to the top layer's hidden vector inside `state`.
  const std::vector<float>& Step(int onehot_idx, State* state,
                                 StepCache* cache, bool train, Rng* rng);

  /// Dense-input variant (x has input_dim entries). Used when extra
  /// feature dimensions are appended to the one-hot token encoding
  /// (the AC-extend baseline of §7.4).
  const std::vector<float>& StepDense(const float* x, State* state,
                                      StepCache* cache, bool train, Rng* rng);

  /// Inference-only batched step: advances `batch` independent decode lanes
  /// one token each through a single matrix-matrix forward per layer.
  /// tokens[b] is lane b's one-hot input; states[b] is updated in place.
  /// No caches, no dropout (serving path). `top_h_panel` receives the top
  /// layer's hidden panel (H x batch, feature-major) for the output head.
  /// Per lane this is bitwise-identical to Step(..., train=false).
  void StepBatch(const int* tokens, State* const* states, int batch,
                 std::vector<float>* top_h_panel) const;

  /// Backpropagation through time over a full episode. `dtop[t]` is the
  /// loss gradient w.r.t. the top-layer hidden state after step t.
  void Backward(const std::vector<StepCache>& caches,
                const std::vector<std::vector<float>>& dtop);

  std::vector<ParamTensor*> Params();
  std::vector<const ParamTensor*> Params() const;

 private:
  const std::vector<float>& StepImpl(int onehot_idx, const float* x0,
                                     State* state, StepCache* cache,
                                     bool train, Rng* rng);

  int input_dim_;
  int hidden_dim_;
  float dropout_;
  std::vector<LstmCell> cells_;
  /// StepImpl's buffers when the caller keeps no cache: the layers share
  /// one cell cache, and a dropout-masked copy of the layer input.
  LstmCell::Cache scratch_;
  std::vector<float> dropped_input_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_NN_LSTM_H_
