#include "nn/lstm.h"

#include <cmath>

#include "common/logging.h"

namespace lsg {

namespace {
inline float Sigmoid(float x) { return 1.f / (1.f + std::exp(-x)); }
}  // namespace

LstmCell::LstmCell(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_("lstm.wx", Matrix::Xavier(4 * hidden_dim, input_dim, rng)),
      wh_("lstm.wh", Matrix::Xavier(4 * hidden_dim, hidden_dim, rng)),
      b_("lstm.b", Matrix::Zeros(4 * hidden_dim, 1)),
      dpre_(4 * hidden_dim) {
  // Forget-gate bias init to 1: standard trick for stable early training.
  for (int i = hidden_dim; i < 2 * hidden_dim; ++i) b_.value.data()[i] = 1.f;
}

void LstmCell::Gates(Cache* cache) const {
  const int h = hidden_dim_;
  float* i = cache->gates.data();
  float* f = i + h;
  float* g = i + 2 * h;
  float* o = i + 3 * h;
  cache->c.resize(h);
  cache->h.resize(h);
  cache->tanh_c.resize(h);
  for (int k = 0; k < h; ++k) {
    i[k] = Sigmoid(i[k]);
    f[k] = Sigmoid(f[k]);
    g[k] = std::tanh(g[k]);
    o[k] = Sigmoid(o[k]);
    cache->c[k] = f[k] * cache->c_prev[k] + i[k] * g[k];
    cache->tanh_c[k] = std::tanh(cache->c[k]);
    cache->h[k] = o[k] * cache->tanh_c[k];
  }
}

void LstmCell::Forward(const float* x, const float* h_prev,
                       const float* c_prev, Cache* cache) const {
  cache->onehot = -1;
  cache->x.assign(x, x + input_dim_);
  cache->h_prev.assign(h_prev, h_prev + hidden_dim_);
  cache->c_prev.assign(c_prev, c_prev + hidden_dim_);
  cache->gates.resize(4 * hidden_dim_);
  float* pre = cache->gates.data();
  MatVec(wx_.value, x, pre);
  MatVecAccum(wh_.value, h_prev, pre);
  const float* b = b_.value.data();
  for (int k = 0; k < 4 * hidden_dim_; ++k) pre[k] += b[k];
  Gates(cache);
}

void LstmCell::ForwardOneHot(int idx, const float* h_prev, const float* c_prev,
                             Cache* cache) const {
  LSG_DCHECK(idx >= 0 && idx < input_dim_);
  cache->onehot = idx;
  cache->x.clear();
  cache->h_prev.assign(h_prev, h_prev + hidden_dim_);
  cache->c_prev.assign(c_prev, c_prev + hidden_dim_);
  cache->gates.resize(4 * hidden_dim_);
  float* pre = cache->gates.data();
  // Wx * e_idx = column idx of Wx.
  for (int k = 0; k < 4 * hidden_dim_; ++k) pre[k] = wx_.value.at(k, idx);
  MatVecAccum(wh_.value, h_prev, pre);
  const float* b = b_.value.data();
  for (int k = 0; k < 4 * hidden_dim_; ++k) pre[k] += b[k];
  Gates(cache);
}

void LstmCell::GatesBatch(const float* pre, const float* c_prev, int batch,
                          float* h_out, float* c_out) const {
  const int h = hidden_dim_;
  for (int k = 0; k < h; ++k) {
    for (int b = 0; b < batch; ++b) {
      const float ig = Sigmoid(pre[static_cast<size_t>(k) * batch + b]);
      const float fg = Sigmoid(pre[static_cast<size_t>(h + k) * batch + b]);
      const float gg = std::tanh(pre[static_cast<size_t>(2 * h + k) * batch + b]);
      const float og = Sigmoid(pre[static_cast<size_t>(3 * h + k) * batch + b]);
      const float ck =
          fg * c_prev[static_cast<size_t>(k) * batch + b] + ig * gg;
      c_out[static_cast<size_t>(k) * batch + b] = ck;
      h_out[static_cast<size_t>(k) * batch + b] = og * std::tanh(ck);
    }
  }
}

void LstmCell::ForwardOneHotBatch(const int* idx, const float* h_prev,
                                  const float* c_prev, int batch, float* h_out,
                                  float* c_out) const {
  std::vector<float> pre(static_cast<size_t>(4 * hidden_dim_) * batch);
  // Column gathers of Wx, one per lane: Wx * e_idx[b].
  for (int k = 0; k < 4 * hidden_dim_; ++k) {
    float* ps = pre.data() + static_cast<size_t>(k) * batch;
    for (int b = 0; b < batch; ++b) {
      LSG_DCHECK(idx[b] >= 0 && idx[b] < input_dim_);
      ps[b] = wx_.value.at(k, idx[b]);
    }
  }
  MatMatAccum(wh_.value, h_prev, batch, pre.data());
  const float* bias = b_.value.data();
  for (int k = 0; k < 4 * hidden_dim_; ++k) {
    float* ps = pre.data() + static_cast<size_t>(k) * batch;
    for (int b = 0; b < batch; ++b) ps[b] += bias[k];
  }
  GatesBatch(pre.data(), c_prev, batch, h_out, c_out);
}

void LstmCell::ForwardBatch(const float* x_panel, const float* h_prev,
                            const float* c_prev, int batch, float* h_out,
                            float* c_out) const {
  std::vector<float> pre(static_cast<size_t>(4 * hidden_dim_) * batch);
  MatMat(wx_.value, x_panel, batch, pre.data());
  MatMatAccum(wh_.value, h_prev, batch, pre.data());
  const float* bias = b_.value.data();
  for (int k = 0; k < 4 * hidden_dim_; ++k) {
    float* ps = pre.data() + static_cast<size_t>(k) * batch;
    for (int b = 0; b < batch; ++b) ps[b] += bias[k];
  }
  GatesBatch(pre.data(), c_prev, batch, h_out, c_out);
}

void LstmCell::Backward(const Cache& cache, const float* dh, const float* dc,
                        float* dh_prev, float* dc_prev, float* dx_or_null) {
  const int h = hidden_dim_;
  const float* i = cache.gates.data();
  const float* f = i + h;
  const float* g = i + 2 * h;
  const float* o = i + 3 * h;
  float* dpre = dpre_.data();
  for (int k = 0; k < h; ++k) {
    const float tc = cache.tanh_c[k];
    const float do_ = dh[k] * tc;
    const float dck = dc[k] + dh[k] * o[k] * (1.f - tc * tc);
    const float di = dck * g[k];
    const float df = dck * cache.c_prev[k];
    const float dg = dck * i[k];
    dc_prev[k] = dck * f[k];
    dpre[k] = di * i[k] * (1.f - i[k]);
    dpre[h + k] = df * f[k] * (1.f - f[k]);
    dpre[2 * h + k] = dg * (1.f - g[k] * g[k]);
    dpre[3 * h + k] = do_ * o[k] * (1.f - o[k]);
  }
  // Parameter gradients.
  if (cache.onehot >= 0) {
    wx_.AccumulateColumn(cache.onehot, dpre);
  } else {
    OuterAccum(wx_.mutable_grad(), dpre, cache.x.data());
    if (dx_or_null != nullptr) MatTVecAccum(wx_.value, dpre, dx_or_null);
  }
  OuterAccum(wh_.mutable_grad(), dpre, cache.h_prev.data());
  float* db = b_.mutable_grad()->data();
  for (int k = 0; k < 4 * h; ++k) db[k] += dpre[k];
  // Recurrent gradient.
  for (int k = 0; k < h; ++k) dh_prev[k] = 0.f;
  MatTVecAccum(wh_.value, dpre, dh_prev);
}

LstmStack::LstmStack(int input_dim, int hidden_dim, int num_layers,
                     float dropout, Rng* rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim), dropout_(dropout) {
  LSG_CHECK(num_layers >= 1);
  cells_.reserve(num_layers);
  cells_.emplace_back(input_dim, hidden_dim, rng);
  for (int l = 1; l < num_layers; ++l) {
    cells_.emplace_back(hidden_dim, hidden_dim, rng);
  }
}

LstmStack::State LstmStack::InitialState() const {
  State s;
  s.h.assign(cells_.size(), std::vector<float>(hidden_dim_, 0.f));
  s.c.assign(cells_.size(), std::vector<float>(hidden_dim_, 0.f));
  return s;
}

const std::vector<float>& LstmStack::Step(int onehot_idx, State* state,
                                          StepCache* cache, bool train,
                                          Rng* rng) {
  return StepImpl(onehot_idx, nullptr, state, cache, train, rng);
}

const std::vector<float>& LstmStack::StepDense(const float* x, State* state,
                                               StepCache* cache, bool train,
                                               Rng* rng) {
  return StepImpl(-1, x, state, cache, train, rng);
}

const std::vector<float>& LstmStack::StepImpl(int onehot_idx, const float* x0,
                                              State* state, StepCache* cache,
                                              bool train, Rng* rng) {
  // Without a caller cache the layers share the scratch cache: each layer's
  // h and c are copied into `state` before the next layer overwrites it.
  const bool drop = train && dropout_ > 0.f;
  if (cache != nullptr) {
    cache->layers.resize(cells_.size());
    cache->dropout_mask.resize(drop ? cells_.size() : 0);
  }

  for (size_t l = 0; l < cells_.size(); ++l) {
    LstmCell::Cache& cc = cache != nullptr ? cache->layers[l] : scratch_;
    if (l == 0) {
      if (x0 != nullptr) {
        cells_[0].Forward(x0, state->h[0].data(), state->c[0].data(), &cc);
      } else {
        cells_[0].ForwardOneHot(onehot_idx, state->h[0].data(),
                                state->c[0].data(), &cc);
      }
    } else {
      const float* input = state->h[l - 1].data();
      if (drop) {
        // The mask is kept only when there is a cache to backpropagate.
        float* mask = nullptr;
        if (cache != nullptr) {
          cache->dropout_mask[l].resize(hidden_dim_);
          mask = cache->dropout_mask[l].data();
        }
        dropped_input_ = state->h[l - 1];
        const float keep = 1.f - dropout_;
        for (int k = 0; k < hidden_dim_; ++k) {
          const float m = rng->Bernoulli(keep) ? 1.f / keep : 0.f;
          if (mask != nullptr) mask[k] = m;
          dropped_input_[k] *= m;
        }
        input = dropped_input_.data();
      }
      cells_[l].Forward(input, state->h[l].data(), state->c[l].data(), &cc);
    }
    state->h[l] = cc.h;
    state->c[l] = cc.c;
  }
  return state->h.back();
}

void LstmStack::StepBatch(const int* tokens, State* const* states, int batch,
                          std::vector<float>* top_h_panel) const {
  LSG_CHECK(batch > 0);
  const int H = hidden_dim_;
  const size_t panel = static_cast<size_t>(H) * batch;
  std::vector<float> h_prev(panel);
  std::vector<float> c_prev(panel);
  std::vector<float> h_out(panel);
  std::vector<float> c_out(panel);
  std::vector<float> input;  // previous layer's h panel (no dropout: serving)
  for (size_t l = 0; l < cells_.size(); ++l) {
    for (int k = 0; k < H; ++k) {
      const size_t base = static_cast<size_t>(k) * batch;
      for (int b = 0; b < batch; ++b) {
        h_prev[base + b] = states[b]->h[l][k];
        c_prev[base + b] = states[b]->c[l][k];
      }
    }
    if (l == 0) {
      cells_[0].ForwardOneHotBatch(tokens, h_prev.data(), c_prev.data(), batch,
                                   h_out.data(), c_out.data());
    } else {
      cells_[l].ForwardBatch(input.data(), h_prev.data(), c_prev.data(), batch,
                             h_out.data(), c_out.data());
    }
    for (int k = 0; k < H; ++k) {
      const size_t base = static_cast<size_t>(k) * batch;
      for (int b = 0; b < batch; ++b) {
        states[b]->h[l][k] = h_out[base + b];
        states[b]->c[l][k] = c_out[base + b];
      }
    }
    input = h_out;
  }
  *top_h_panel = std::move(input);
}

void LstmStack::Backward(const std::vector<StepCache>& caches,
                         const std::vector<std::vector<float>>& dtop) {
  LSG_CHECK(caches.size() == dtop.size());
  const int L = static_cast<int>(cells_.size());
  const int T = static_cast<int>(caches.size());
  // Gradients flowing backward in time, per layer.
  std::vector<std::vector<float>> dh_time(L, std::vector<float>(hidden_dim_, 0.f));
  std::vector<std::vector<float>> dc_time(L, std::vector<float>(hidden_dim_, 0.f));
  std::vector<float> dh(hidden_dim_);
  std::vector<float> dh_prev(hidden_dim_);
  std::vector<float> dc_prev(hidden_dim_);
  std::vector<float> dx(hidden_dim_);

  for (int t = T - 1; t >= 0; --t) {
    // Empty when the step ran without dropout.
    const std::vector<std::vector<float>>& masks = caches[t].dropout_mask;
    for (int l = L - 1; l >= 0; --l) {
      // Gradient into this layer's h at step t.
      for (int k = 0; k < hidden_dim_; ++k) dh[k] = dh_time[l][k];
      if (l == L - 1) {
        for (int k = 0; k < hidden_dim_; ++k) dh[k] += dtop[t][k];
      } else {
        // dx still holds the input gradient of layer l+1, which passes
        // through that layer's dropout mask.
        for (int k = 0; k < hidden_dim_; ++k) {
          float g = dx[k];
          if (!masks.empty()) g *= masks[l + 1][k];
          dh[k] += g;
        }
      }
      std::fill(dx.begin(), dx.end(), 0.f);
      cells_[l].Backward(caches[t].layers[l], dh.data(), dc_time[l].data(),
                         dh_prev.data(), dc_prev.data(),
                         l > 0 ? dx.data() : nullptr);
      // Backward overwrites every entry of dh_prev/dc_prev, so the buffers
      // can trade places instead of being copied.
      dh_time[l].swap(dh_prev);
      dc_time[l].swap(dc_prev);
    }
  }
}

std::vector<ParamTensor*> LstmStack::Params() {
  std::vector<ParamTensor*> out;
  for (LstmCell& c : cells_) {
    for (ParamTensor* p : c.Params()) out.push_back(p);
  }
  return out;
}

std::vector<const ParamTensor*> LstmStack::Params() const {
  std::vector<const ParamTensor*> out;
  for (const LstmCell& c : cells_) {
    for (const ParamTensor* p : c.Params()) out.push_back(p);
  }
  return out;
}

}  // namespace lsg
