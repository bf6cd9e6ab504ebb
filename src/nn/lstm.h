#ifndef LEARNEDSQLGEN_NN_LSTM_H_
#define LEARNEDSQLGEN_NN_LSTM_H_

#include <vector>

#include "nn/matrix.h"

namespace lsg {

/// One LSTM cell with standard gates (input, forget, cell, output). An
/// input is an optional one-hot column (the token encoding of §4.1) followed
/// by a dense block; the one-hot part touches only its own column of Wx in
/// both passes, so only the columns actually fed go live for the optimizer.
/// Wh is a packed tensor (see ParamTensor), and so is Wx of a cell whose
/// input has no one-hot part, so a one-lane step multiplies through their
/// forward panels; a one-hot Wx (vocabulary-wide) keeps none.
class LstmCell {
 public:
  /// `onehot_input`: every Forward feeds a one-hot part.
  LstmCell(int input_dim, int hidden_dim, bool onehot_input, Rng* rng);

  /// The activations of one step over `lanes` lanes, every field a
  /// feature-major panel ([feature][lane], lane index contiguous). At one
  /// lane, with its inputs filled in, it is the per-step BPTT cache. A
  /// reused cache keeps its buffers, so a step into it allocates nothing.
  struct Cache {
    int onehot = -1;               ///< one-hot index, or -1 (BPTT cache)
    std::vector<float> x;          ///< dense input block (BPTT cache)
    std::vector<float> h_prev, c_prev;  ///< (BPTT cache)
    /// The 4H gate pre-activations, overwritten in place by the
    /// post-activation gates i | f | g | o.
    std::vector<float> gates;
    std::vector<float> c, h;
    std::vector<float> tanh_c;     ///< tanh(c), the factor of h = o * tanh(c)
  };

  /// The one forward, over `lanes` lanes: writes p->gates, p->c, p->tanh_c
  /// and p->h. Lane b's input is e_{onehot[b]} (no one-hot part when onehot
  /// is null) followed by column b of x, a (dense_dim x lanes) panel over
  /// the last dense_dim input columns (all of them without a one-hot part);
  /// h_prev and c_prev are (H x lanes) panels. x may alias p->h: it is read
  /// before the gates are written. Each Wx row sum starts at the token's
  /// column and adds the dense products in ascending column order: the
  /// chain a dense MatVec over the whole input runs, less its ±0 terms.
  void Forward(const int* onehot, const float* x, int dense_dim,
               const float* h_prev, const float* c_prev, int lanes,
               Cache* p) const;

  /// Backward through one step of a one-lane cache. `dh`/`dc` are
  /// gradients flowing into this step's outputs; `dh_prev`/`dc_prev`
  /// receive (overwrite) gradients for the previous step; `dx_or_null`
  /// accumulates input gradients (skipped for a one-hot input — tokens and
  /// their feature tail are not learnable). A one-hot input writes Wx's
  /// gradient in the token's and the dense columns only.
  void Backward(const Cache& cache, const float* dh, const float* dc,
                float* dh_prev, float* dc_prev, float* dx_or_null);

  std::vector<ParamTensor*> Params() { return {&wx_, &wh_, &b_}; }
  std::vector<const ParamTensor*> Params() const { return {&wx_, &wh_, &b_}; }

 private:
  int input_dim_;
  int hidden_dim_;
  ParamTensor wx_;  ///< (4H x In)
  ParamTensor wh_;  ///< (4H x H)
  ParamTensor b_;   ///< (4H x 1)
  std::vector<float> dpre_;  ///< Backward's gate-gradient scratch (4H)
};

/// A stack of LSTM cells with inverted dropout between layers (the paper:
/// 2-layer LSTM, 30 cell units, dropout 0.3). Layer 0 reads a one-hot
/// token followed by `tail_dim` dense features (the AC-extend constraint
/// encoding of §7.4; none for the standard model).
class LstmStack {
 public:
  LstmStack(int input_dim, int hidden_dim, int num_layers, float dropout,
            Rng* rng, int tail_dim = 0);

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

  /// One lane of a step.
  struct Lane {
    int token = 0;                 ///< one-hot input (< input_dim - tail_dim)
    const float* tail = nullptr;   ///< tail_dim features
    State* state = nullptr;        ///< advanced in place
    StepCache* cache = nullptr;    ///< BPTT cache to fill, or null
    Rng* dropout = nullptr;        ///< dropout stream, or null for none
  };

  /// The output panel the layers share when no lane cache holds it, and
  /// the gathered input panels. A reused workspace allocates nothing once
  /// it has seen the widest step.
  struct Workspace {
    LstmCell::Cache panel;
    std::vector<float> x, h_prev, c_prev;
    std::vector<int> tokens;
  };

  State InitialState() const;

  /// The one step: advances `n` lanes one input each, through one
  /// matrix-matrix product per layer. A lane draws its dropout masks from
  /// its own stream, layer by layer, so lane b at any width is bitwise
  /// lane b stepped alone. Returns the top layer's hidden panel (H x n,
  /// feature-major), valid until the next step into the same workspace or
  /// cache.
  const float* Step(const Lane* lanes, int n, Workspace* ws) const;

  /// Backpropagation through time over a full episode. `dtop[t]` is the
  /// loss gradient w.r.t. the top-layer hidden state after step t.
  void Backward(const std::vector<StepCache>& caches,
                const std::vector<std::vector<float>>& dtop);

  std::vector<ParamTensor*> Params();
  std::vector<const ParamTensor*> Params() const;

 private:
  int tail_dim_;
  int hidden_dim_;
  float dropout_;
  std::vector<LstmCell> cells_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_NN_LSTM_H_
