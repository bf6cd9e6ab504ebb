#ifndef LEARNEDSQLGEN_TESTS_DENSE_OPTIMIZER_REFERENCE_H_
#define LEARNEDSQLGEN_TESTS_DENSE_OPTIMIZER_REFERENCE_H_

// Every-element optimizer tail, kept only as a test reference: Adam::Step
// and ClipGradNorm visit live gradient rows only (see ParamTensor), and
// these tests pin that they are bitwise this dense sweep over every entry.
// Taking mutable_grad() here marks the reference tensors all-live, which is
// harmless: the loops below never consult liveness.

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/matrix.h"

namespace lsg {
namespace testing_ref {

/// `p`'s gradient, or a value-shaped +0 one while nothing has been written
/// to it yet (a ParamTensor allocates its gradient on the first write).
inline Matrix GradOrZeros(const ParamTensor& p) {
  if (p.grad().size() == p.value().size()) return p.grad();
  return Matrix::Zeros(p.value().rows(), p.value().cols());
}

/// Adam over every parameter entry, every step.
class DenseAdam {
 public:
  DenseAdam(std::vector<ParamTensor*> params, float lr, float beta1 = 0.9f,
            float beta2 = 0.999f, float eps = 1e-8f)
      : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
        eps_(eps) {
    for (const ParamTensor* p : params_) {
      m_.push_back(Matrix::Zeros(p->value().rows(), p->value().cols()));
      v_.push_back(Matrix::Zeros(p->value().rows(), p->value().cols()));
    }
  }

  void Step() {
    ++t_;
    const float bc1 = 1.f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 = 1.f - std::pow(beta2_, static_cast<float>(t_));
    for (size_t i = 0; i < params_.size(); ++i) {
      ParamTensor* p = params_[i];
      float* g = p->mutable_grad()->data();
      float* m = m_[i].data();
      float* v = v_[i].data();
      p->UpdateValue([&](Matrix* value) {
        float* w = value->data();
        for (size_t k = 0; k < value->size(); ++k) {
          m[k] = beta1_ * m[k] + (1.f - beta1_) * g[k];
          v[k] = beta2_ * v[k] + (1.f - beta2_) * g[k] * g[k];
          const float mhat = m[k] / bc1;
          const float vhat = v[k] / bc2;
          w[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
          g[k] = 0.f;
        }
      });
    }
  }

  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }

 private:
  std::vector<ParamTensor*> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  float lr_, beta1_, beta2_, eps_;
  int64_t t_ = 0;
};

/// Global-norm clipping summed over every gradient entry in each tensor's
/// logical row-major order (LogicalOffset), whatever its storage. Returns
/// the pre-clip norm.
inline double DenseClipGradNorm(const std::vector<ParamTensor*>& params,
                                double max_norm) {
  double sq = 0.0;
  for (ParamTensor* p : params) {
    const float* g = p->grad().data();
    if (p->grad().size() == 0) continue;  // never written: all +0
    for (int r = 0; r < p->logical_rows(); ++r) {
      for (int c = 0; c < p->logical_cols(); ++c) {
        const double x = g[p->LogicalOffset(r, c)];
        sq += x * x;
      }
    }
  }
  double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    float scale = static_cast<float>(max_norm / norm);
    for (ParamTensor* p : params) {
      float* g = p->mutable_grad()->data();
      for (size_t i = 0; i < p->grad().size(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

/// Describes the first entry outside `p`'s live rows whose gradient or
/// Adam moment (m, v) is not exactly +0; empty when there is none.
inline std::string NonLiveViolation(const ParamTensor& p, const Matrix& m,
                                    const Matrix& v) {
  const Matrix g = GradOrZeros(p);
  for (int r = 0; r < g.rows(); ++r) {
    if (p.IsLive(r)) continue;
    for (int c = 0; c < g.cols(); ++c) {
      for (const Matrix* x : {&g, &m, &v}) {
        const float e = x->at(r, c);
        if (e != 0.f || std::signbit(e)) {
          const char* what = x == &g ? "grad" : x == &m ? "m" : "v";
          return p.name + " " + what + "(" + std::to_string(r) + ", " +
                 std::to_string(c) + ") = " + std::to_string(e) +
                 " in a non-live row";
        }
      }
    }
  }
  return "";
}

}  // namespace testing_ref
}  // namespace lsg

#endif  // LEARNEDSQLGEN_TESTS_DENSE_OPTIMIZER_REFERENCE_H_
