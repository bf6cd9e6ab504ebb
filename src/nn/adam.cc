#include "nn/adam.h"

#include <algorithm>
#include <cmath>

#include "nn/tiles.h"

namespace lsg {

namespace {

struct AdamCoeffs {
  float lr, beta1, beta2, eps, bc1, bc2;
};

// One Adam update over kWidth consecutive entries, then their gradients are
// zeroed. Every load lands in the tile before the first store and kWidth
// is a template constant (see ForEachTile), so GCC's SLP vectorizer packs
// the tile. Vector mul/add/div/sqrt round exactly like their scalar forms
// and contraction is off, so each entry's update is bitwise the scalar
// expression.
template <int kWidth>
inline void AdamTile(AdamCoeffs c, float* w, float* g, float* m, float* v) {
  float mt[kWidth], vt[kWidth], wt[kWidth];
#pragma GCC unroll 16
  for (int j = 0; j < kWidth; ++j) {
    mt[j] = c.beta1 * m[j] + (1.f - c.beta1) * g[j];
    vt[j] = c.beta2 * v[j] + (1.f - c.beta2) * g[j] * g[j];
    const float mhat = mt[j] / c.bc1;
    const float vhat = vt[j] / c.bc2;
    wt[j] = w[j] - c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
  // One store sweep per array: interleaving them would make GCC prove the
  // four arrays disjoint before it could group each one's stores.
#pragma GCC unroll 16
  for (int j = 0; j < kWidth; ++j) m[j] = mt[j];
#pragma GCC unroll 16
  for (int j = 0; j < kWidth; ++j) v[j] = vt[j];
#pragma GCC unroll 16
  for (int j = 0; j < kWidth; ++j) w[j] = wt[j];
#pragma GCC unroll 16
  for (int j = 0; j < kWidth; ++j) g[j] = 0.f;
}

}  // namespace

Adam::Adam(std::vector<ParamTensor*> params, float lr, float beta1,
           float beta2, float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ParamTensor* p : params_) {
    m_.push_back(Matrix::Zeros(p->value().rows(), p->value().cols()));
    v_.push_back(Matrix::Zeros(p->value().rows(), p->value().cols()));
  }
}

void Adam::Step() {
  ++t_;
  const AdamCoeffs c{lr_,
                     beta1_,
                     beta2_,
                     eps_,
                     1.f - std::pow(beta1_, static_cast<float>(t_)),
                     1.f - std::pow(beta2_, static_cast<float>(t_))};
  for (size_t i = 0; i < params_.size(); ++i) {
    ParamTensor* p = params_[i];
    float* m = m_[i].data();
    float* v = v_[i].data();
    p->UpdateValue([&](Matrix* value) {
      float* w = value->data();
      // Live entries only (see ParamTensor): elsewhere g = m = v = +0 and
      // the update would leave every value bit unchanged.
      p->ForEachLiveSpan([&](size_t k, size_t n, float* g) {
        ForEachTile(n, [&]<int kWidth>(size_t j) {
          AdamTile<kWidth>(c, w + k + j, g + j, m + k + j, v + k + j);
        });
      });
    });
  }
}

void Adam::ZeroGrad() {
  for (ParamTensor* p : params_) {
    p->ForEachLiveSpan(
        [](size_t, size_t n, float* g) { std::fill(g, g + n, 0.f); });
  }
}

}  // namespace lsg
