#ifndef LEARNEDSQLGEN_TESTS_SCALAR_FORWARD_REFERENCE_H_
#define LEARNEDSQLGEN_TESTS_SCALAR_FORWARD_REFERENCE_H_

// One add chain per output row: the plain scalar loops of the single-lane
// dense forward products, kept only as a test reference. The production
// kernels (MatVec, Linear::ForwardRows, and MatMat / MatMatAccum over a
// packed tensor's forward panel) run tiles with independent accumulators,
// and these tests pin that every output is bitwise what the one-chain loop
// below computes.

#include <cstddef>

#include "nn/matrix.h"

namespace lsg {
namespace testing_ref {

/// acc = ((0 + w_0 x_0) + w_1 x_1) + ... in ascending j.
inline float ScalarRowDot(const Matrix& w, int i, const float* x,
                          int x_stride) {
  const float* row = w.data() + static_cast<size_t>(i) * w.cols();
  float acc = 0.f;
  for (int j = 0; j < w.cols(); ++j) {
    acc += row[j] * x[static_cast<size_t>(j) * x_stride];
  }
  return acc;
}

/// y = W x.
inline void ScalarMatVec(const Matrix& w, const float* x, float* y) {
  for (int i = 0; i < w.rows(); ++i) y[i] = ScalarRowDot(w, i, x, 1);
}

/// y += W x, each row's sum computed first and added once.
inline void ScalarMatVecAccum(const Matrix& w, const float* x, float* y) {
  for (int i = 0; i < w.rows(); ++i) y[i] += ScalarRowDot(w, i, x, 1);
}

/// y[k] = (row rows[k] of W) . x + bias[rows[k]], x read at x_stride.
inline void ScalarForwardRows(const Matrix& w, const float* bias,
                              const float* x, int x_stride, const int* rows,
                              int nrows, float* y) {
  for (int k = 0; k < nrows; ++k) {
    y[k] = ScalarRowDot(w, rows[k], x, x_stride) + bias[rows[k]];
  }
}

}  // namespace testing_ref
}  // namespace lsg

#endif  // LEARNEDSQLGEN_TESTS_SCALAR_FORWARD_REFERENCE_H_
