#ifndef LEARNEDSQLGEN_TESTS_SCALAR_LSTM_REFERENCE_H_
#define LEARNEDSQLGEN_TESTS_SCALAR_LSTM_REFERENCE_H_

// An LstmStack step written out with the one-chain scalar loops of
// scalar_forward_reference.h, kept only as a test reference for the lane
// step (LstmStack::Step). Layer 0 feeds the token as Wx's column when the
// input has no feature tail, and otherwise a dense e_token ++ tail vector
// through the whole of Wx; it records its BPTT cache in that form (a dense
// cache has onehot = -1 and the full input in x), so LstmStack::Backward
// over it runs the dense OuterAccum.

#include <cmath>
#include <vector>

#include "common/random.h"
#include "nn/lstm.h"
#include "tests/scalar_forward_reference.h"

namespace lsg {
namespace testing_ref {

inline float ScalarSigmoid(float x) { return 1.f / (1.f + std::exp(-x)); }

/// One cell step. `onehot` >= 0 feeds e_onehot (x unused); otherwise the
/// dense x.
inline void ScalarCellForward(const Matrix& wx, const Matrix& wh,
                              const Matrix& b, int onehot,
                              const std::vector<float>& x,
                              const std::vector<float>& h_prev,
                              const std::vector<float>& c_prev,
                              LstmCell::Cache* cache) {
  const int h = wh.cols();
  cache->onehot = onehot;
  cache->x = onehot >= 0 ? std::vector<float>() : x;
  cache->h_prev = h_prev;
  cache->c_prev = c_prev;
  cache->gates.assign(4 * h, 0.f);
  float* pre = cache->gates.data();
  if (onehot >= 0) {
    for (int k = 0; k < 4 * h; ++k) pre[k] = wx.at(k, onehot);
  } else {
    ScalarMatVec(wx, x.data(), pre);
  }
  ScalarMatVecAccum(wh, h_prev.data(), pre);
  for (int k = 0; k < 4 * h; ++k) pre[k] += b.data()[k];
  cache->c.assign(h, 0.f);
  cache->tanh_c.assign(h, 0.f);
  cache->h.assign(h, 0.f);
  for (int k = 0; k < h; ++k) {
    float& i = pre[k];
    float& f = pre[h + k];
    float& g = pre[2 * h + k];
    float& o = pre[3 * h + k];
    i = ScalarSigmoid(i);
    f = ScalarSigmoid(f);
    g = std::tanh(g);
    o = ScalarSigmoid(o);
    cache->c[k] = f * c_prev[k] + i * g;
    cache->tanh_c[k] = std::tanh(cache->c[k]);
    cache->h[k] = o * cache->tanh_c[k];
  }
}

/// One step of the stack whose LstmStack::Params() are `params` (wx, wh, b
/// per layer): feeds `token` and `tail` (the last tail.size() input
/// columns), advances `state`, fills `cache` when non-null and draws
/// inverted-dropout masks between layers from `dropout_rng` when non-null.
/// Returns the top layer's new h.
inline std::vector<float> ScalarLstmStep(
    const std::vector<const ParamTensor*>& params, float dropout, int token,
    const std::vector<float>& tail, LstmStack::State* state,
    LstmStack::StepCache* cache, Rng* dropout_rng) {
  const size_t layers = params.size() / 3;
  const bool drop = dropout_rng != nullptr && dropout > 0.f;
  LstmStack::StepCache local;
  LstmStack::StepCache& sc = cache != nullptr ? *cache : local;
  sc.layers.resize(layers);
  sc.dropout_mask.resize(drop ? layers : 0);
  for (size_t l = 0; l < layers; ++l) {
    const Matrix& wx = params[3 * l]->value();
    const Matrix& wh = params[3 * l + 1]->value();
    const Matrix& b = params[3 * l + 2]->value();
    std::vector<float> x;
    int onehot = -1;
    if (l == 0 && tail.empty()) {
      onehot = token;
    } else if (l == 0) {
      x.assign(wx.cols(), 0.f);
      x[token] = 1.f;
      for (size_t j = 0; j < tail.size(); ++j) {
        x[wx.cols() - tail.size() + j] = tail[j];
      }
    } else {
      x = state->h[l - 1];
      if (drop) {
        const float keep = 1.f - dropout;
        std::vector<float>& mask = sc.dropout_mask[l];
        mask.assign(x.size(), 0.f);
        for (size_t k = 0; k < x.size(); ++k) {
          mask[k] = dropout_rng->Bernoulli(keep) ? 1.f / keep : 0.f;
          x[k] *= mask[k];
        }
      }
    }
    ScalarCellForward(wx, wh, b, onehot, x, state->h[l], state->c[l],
                      &sc.layers[l]);
    state->h[l] = sc.layers[l].h;
    state->c[l] = sc.layers[l].c;
  }
  return state->h.back();
}

}  // namespace testing_ref
}  // namespace lsg

#endif  // LEARNEDSQLGEN_TESTS_SCALAR_LSTM_REFERENCE_H_
