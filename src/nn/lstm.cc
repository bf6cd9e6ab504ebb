#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lsg {

namespace {
inline float Sigmoid(float x) { return 1.f / (1.f + std::exp(-x)); }
}  // namespace

LstmCell::LstmCell(int input_dim, int hidden_dim, bool onehot_input,
                   Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_("lstm.wx", Matrix::Xavier(4 * hidden_dim, input_dim, rng),
          /*packed=*/!onehot_input),
      wh_("lstm.wh", Matrix::Xavier(4 * hidden_dim, hidden_dim, rng),
          /*packed=*/true),
      b_("lstm.b", Matrix::Zeros(4 * hidden_dim, 1)),
      dpre_(4 * hidden_dim) {
  // Forget-gate bias init to 1: standard trick for stable early training.
  b_.UpdateValue([hidden_dim](Matrix* b) {
    for (int i = hidden_dim; i < 2 * hidden_dim; ++i) b->data()[i] = 1.f;
  });
}

void LstmCell::Forward(int onehot, const float* x, int dense_dim,
                       const float* h_prev, const float* c_prev,
                       Cache* p) const {
  const int h = hidden_dim_;
  LSG_DCHECK(onehot >= 0 ? dense_dim < input_dim_ : dense_dim == input_dim_);
  p->gates.resize(4 * h);
  p->c.resize(h);
  p->tanh_c.resize(h);
  p->h.resize(h);
  float* pre = p->gates.data();
  if (onehot < 0) {
    MatMat(wx_, x, pre);
  } else {
    const int first = input_dim_ - dense_dim;
    LSG_DCHECK(onehot < first);
    // Wx (e_token ++ x): the token's column, then the dense products in
    // ascending column order.
    const float* w = wx_.value().data();
    for (int k = 0; k < 4 * h; ++k) {
      pre[k] = w[static_cast<size_t>(k) * input_dim_ + onehot];
    }
    for (int j = 0; j < dense_dim; ++j) {
      const float* col = w + first + j;
      const float xj = x[j];
      for (int k = 0; k < 4 * h; ++k) {
        pre[k] += col[static_cast<size_t>(k) * input_dim_] * xj;
      }
    }
  }
  MatMatAccum(wh_, h_prev, pre);
  const float* bias = b_.value().data();
  for (int k = 0; k < 4 * h; ++k) pre[k] += bias[k];
  // The gates: i | f | g | o, h entries each.
  float* i = pre;
  float* f = pre + h;
  float* g = pre + 2 * h;
  float* o = pre + 3 * h;
  float* c = p->c.data();
  float* tanh_c = p->tanh_c.data();
  float* h_out = p->h.data();
  for (int j = 0; j < h; ++j) {
    i[j] = Sigmoid(i[j]);
    f[j] = Sigmoid(f[j]);
    g[j] = std::tanh(g[j]);
    o[j] = Sigmoid(o[j]);
    c[j] = f[j] * c_prev[j] + i[j] * g[j];
    tanh_c[j] = std::tanh(c[j]);
    h_out[j] = o[j] * tanh_c[j];
  }
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
    // The token's column, then each dense column scaled by its input: the
    // only columns whose dense OuterAccum terms are not ±0.
    wx_.AccumulateColumn(cache.onehot, dpre);
    const int first = input_dim_ - static_cast<int>(cache.x.size());
    for (size_t j = 0; j < cache.x.size(); ++j) {
      wx_.AccumulateColumn(first + static_cast<int>(j), dpre, cache.x[j]);
    }
  } else {
    OuterAccum(wx_.mutable_grad(), dpre, cache.x.data());
    if (dx_or_null != nullptr) MatTVecAccum(wx_.value(), dpre, dx_or_null);
  }
  OuterAccum(wh_.mutable_grad(), dpre, cache.h_prev.data());
  float* db = b_.mutable_grad()->data();
  for (int k = 0; k < 4 * h; ++k) db[k] += dpre[k];
  // Recurrent gradient.
  for (int k = 0; k < h; ++k) dh_prev[k] = 0.f;
  MatTVecAccum(wh_.value(), dpre, dh_prev);
}

LstmStack::LstmStack(int input_dim, int hidden_dim, int num_layers,
                     float dropout, Rng* rng, int tail_dim)
    : tail_dim_(tail_dim), hidden_dim_(hidden_dim), dropout_(dropout) {
  LSG_CHECK(num_layers >= 1);
  LSG_CHECK(tail_dim >= 0 && tail_dim < input_dim);
  cells_.reserve(num_layers);
  cells_.emplace_back(input_dim, hidden_dim, /*onehot_input=*/true, rng);
  for (int l = 1; l < num_layers; ++l) {
    cells_.emplace_back(hidden_dim, hidden_dim, /*onehot_input=*/false, rng);
  }
}

LstmStack::State LstmStack::InitialState() const {
  State s;
  s.h.assign(cells_.size(), std::vector<float>(hidden_dim_, 0.f));
  s.c.assign(cells_.size(), std::vector<float>(hidden_dim_, 0.f));
  return s;
}

const float* LstmStack::Step(const Lane& lane, Workspace* ws) const {
  const size_t H = static_cast<size_t>(hidden_dim_);
  const size_t L = cells_.size();
  const bool drop = lane.dropout != nullptr && dropout_ > 0.f;
  if (lane.cache != nullptr) {
    lane.cache->layers.resize(L);
    lane.cache->dropout_mask.resize(drop ? L : 0);
  }
  const float* below = nullptr;  // the layer below's new h
  for (size_t l = 0; l < L; ++l) {
    // Layer 0 reads the tail, the others the layer below's h through the
    // lane's dropout mask.
    const float* x = lane.tail;
    size_t dense_dim = static_cast<size_t>(tail_dim_);
    if (l > 0) {
      x = below;
      dense_dim = H;
      if (drop) {
        ws->x.assign(below, below + H);
        float* mask = nullptr;
        if (lane.cache != nullptr) {
          lane.cache->dropout_mask[l].resize(H);
          mask = lane.cache->dropout_mask[l].data();
        }
        const float keep = 1.f - dropout_;
        for (size_t k = 0; k < H; ++k) {
          const float m = lane.dropout->Bernoulli(keep) ? 1.f / keep : 0.f;
          if (mask != nullptr) mask[k] = m;
          ws->x[k] *= m;
        }
        x = ws->x.data();
      }
    }
    std::vector<float>& h = lane.state->h[l];
    std::vector<float>& c = lane.state->c[l];
    // A cached lane steps inside its cache and keeps its inputs before the
    // forward: without a cache or dropout, x is the workspace's h, which
    // the forward overwrites.
    LstmCell::Cache& out =
        lane.cache != nullptr ? lane.cache->layers[l] : ws->out;
    if (lane.cache != nullptr) {
      out.onehot = l == 0 ? lane.token : -1;
      out.x.assign(x, x + dense_dim);
      out.h_prev = h;
      out.c_prev = c;
    }
    cells_[l].Forward(l == 0 ? lane.token : -1, x,
                      static_cast<int>(dense_dim), h.data(), c.data(), &out);
    std::copy(out.h.begin(), out.h.end(), h.begin());
    std::copy(out.c.begin(), out.c.end(), c.begin());
    below = out.h.data();
  }
  return below;
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
