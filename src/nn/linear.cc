#include "nn/linear.h"

namespace lsg {

Linear::Linear(int input_dim, int output_dim, Rng* rng)
    : w_("linear.w", Matrix::Xavier(output_dim, input_dim, rng)),
      b_("linear.b", Matrix::Zeros(output_dim, 1)) {}

void Linear::Forward(const float* x, float* y) const {
  MatVec(w_.value(), x, y);
  const float* b = b_.value().data();
  for (int i = 0; i < w_.value().rows(); ++i) y[i] += b[i];
}

void Linear::ForwardRows(const float* x, const int* rows, int nrows,
                         float* y) const {
  MatVecRows(w_.value(), x, rows, nrows, y);
  const float* bias = b_.value().data();
  for (int k = 0; k < nrows; ++k) y[k] += bias[rows[k]];
}

void Linear::Backward(const float* x, const float* dy, float* dx_or_null) {
  OuterAccum(w_.mutable_grad(), dy, x);
  float* db = b_.mutable_grad()->data();
  for (int i = 0; i < w_.value().rows(); ++i) db[i] += dy[i];
  if (dx_or_null != nullptr) MatTVecAccum(w_.value(), dy, dx_or_null);
}

void Linear::BackwardRows(const float* x, const int* rows, int nrows,
                          const float* dy, float* dx_or_null) {
  const int cols = w_.value().cols();
  const float* wd = w_.value().data();
  float* gd = w_.mutable_grad()->data();
  float* db = b_.mutable_grad()->data();
  for (int k = 0; k < nrows; ++k) {
    const int i = rows[k];
    const float g = dy[k];
    db[i] += g;
    if (g == 0.f) continue;
    AxpyAccum(g, x, cols, gd + static_cast<size_t>(i) * cols);
    if (dx_or_null == nullptr) continue;
    AxpyAccum(g, wd + static_cast<size_t>(i) * cols, cols, dx_or_null);
  }
}

}  // namespace lsg
