#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lsg {

Matrix Matrix::Randn(int rows, int cols, float stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return m;
}

Matrix Matrix::Xavier(int rows, int cols, Rng* rng) {
  float stddev = std::sqrt(2.0f / static_cast<float>(rows + cols));
  return Randn(rows, cols, stddev, rng);
}

void MatVec(const Matrix& w, const float* x, float* y) {
  const int r = w.rows();
  const int c = w.cols();
  const float* wd = w.data();
  for (int i = 0; i < r; ++i) {
    float acc = 0.f;
    const float* row = wd + static_cast<size_t>(i) * c;
    for (int j = 0; j < c; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

void MatVecAccum(const Matrix& w, const float* x, float* y) {
  const int r = w.rows();
  const int c = w.cols();
  const float* wd = w.data();
  for (int i = 0; i < r; ++i) {
    float acc = 0.f;
    const float* row = wd + static_cast<size_t>(i) * c;
    for (int j = 0; j < c; ++j) acc += row[j] * x[j];
    y[i] += acc;
  }
}

namespace {

// Lanes per register tile. 16 floats span two AVX-512 / four SSE vectors;
// small enough that the accumulators stay in registers at -O2.
constexpr int kLaneBlock = 16;

// One row-major sweep over a lane tile [b0, b0+kWidth). For each output
// row the tile keeps kWidth independent accumulators and walks features in
// ascending-j order, so lane b's sum reassociates nothing relative to
// MatVec; the bb loop is stride-1 over the panel. kWidth is a template
// parameter on purpose: GCC's SLP vectorizer (on at -O2) only fires on
// constant-trip-count lane loops — a runtime `width` leaves the whole
// kernel scalar. GCC only emits FMA contractions when the target ISA has
// them, and the baseline x86-64 build (SSE2) does not, so vector mul+add
// keeps scalar rounding and the bitwise-oracle contract holds.
template <bool kAccum, int kWidth>
void MatMatTile(const float* wd, int rows, int cols, const float* x_panel,
                int batch, int b0, float* y_panel) {
  float acc[kWidth];
  for (int i = 0; i < rows; ++i) {
    const float* row = wd + static_cast<size_t>(i) * cols;
#pragma GCC unroll 16
    for (int bb = 0; bb < kWidth; ++bb) acc[bb] = 0.f;
    for (int j = 0; j < cols; ++j) {
      const float wj = row[j];
      const float* xs = x_panel + static_cast<size_t>(j) * batch + b0;
      // Fully unrolled so the kWidth accumulators live in vector registers
      // across the j sweep; a rolled bb loop makes GCC spill them to the
      // stack every iteration.
#pragma GCC unroll 16
      for (int bb = 0; bb < kWidth; ++bb) acc[bb] += wj * xs[bb];
    }
    float* ys = y_panel + static_cast<size_t>(i) * batch + b0;
    if (kAccum) {
#pragma GCC unroll 16
      for (int bb = 0; bb < kWidth; ++bb) ys[bb] += acc[bb];
    } else {
#pragma GCC unroll 16
      for (int bb = 0; bb < kWidth; ++bb) ys[bb] = acc[bb];
    }
  }
}

// Greedy power-of-two tiling: every lane lands in exactly one fixed-width
// tile, so its accumulation order is identical no matter how the batch
// splits (16+8+4+… vs one 16-tile vs MatVec).
template <bool kAccum>
void MatMatImpl(const Matrix& w, const float* x_panel, int batch,
                float* y_panel) {
  const float* wd = w.data();
  const int rows = w.rows();
  const int cols = w.cols();
  int b0 = 0;
  for (; b0 + kLaneBlock <= batch; b0 += kLaneBlock) {
    MatMatTile<kAccum, kLaneBlock>(wd, rows, cols, x_panel, batch, b0,
                                   y_panel);
  }
  if (b0 + 8 <= batch) {
    MatMatTile<kAccum, 8>(wd, rows, cols, x_panel, batch, b0, y_panel);
    b0 += 8;
  }
  if (b0 + 4 <= batch) {
    MatMatTile<kAccum, 4>(wd, rows, cols, x_panel, batch, b0, y_panel);
    b0 += 4;
  }
  if (b0 + 2 <= batch) {
    MatMatTile<kAccum, 2>(wd, rows, cols, x_panel, batch, b0, y_panel);
    b0 += 2;
  }
  if (b0 < batch) {
    MatMatTile<kAccum, 1>(wd, rows, cols, x_panel, batch, b0, y_panel);
  }
}

}  // namespace

void MatMat(const Matrix& w, const float* x_panel, int batch, float* y_panel) {
  LSG_CHECK(batch > 0);
  if (batch == 1) {
    MatVec(w, x_panel, y_panel);
    return;
  }
  MatMatImpl<false>(w, x_panel, batch, y_panel);
}

void MatMatAccum(const Matrix& w, const float* x_panel, int batch,
                 float* y_panel) {
  LSG_CHECK(batch > 0);
  if (batch == 1) {
    MatVecAccum(w, x_panel, y_panel);
    return;
  }
  MatMatImpl<true>(w, x_panel, batch, y_panel);
}

void MatTVecAccum(const Matrix& w, const float* dy, float* dx) {
  const int r = w.rows();
  const int c = w.cols();
  const float* wd = w.data();
  for (int i = 0; i < r; ++i) {
    const float g = dy[i];
    if (g == 0.f) continue;
    const float* row = wd + static_cast<size_t>(i) * c;
    for (int j = 0; j < c; ++j) dx[j] += row[j] * g;
  }
}

void OuterAccum(Matrix* dw, const float* dy, const float* x) {
  const int r = dw->rows();
  const int c = dw->cols();
  float* wd = dw->data();
  for (int i = 0; i < r; ++i) {
    const float g = dy[i];
    if (g == 0.f) continue;
    float* row = wd + static_cast<size_t>(i) * c;
    for (int j = 0; j < c; ++j) row[j] += g * x[j];
  }
}

void SoftmaxInPlace(std::vector<float>* v) {
  float mx = -1e30f;
  for (float x : *v) mx = std::max(mx, x);
  double sum = 0.0;
  for (float& x : *v) {
    x = std::exp(x - mx);
    sum += x;
  }
  LSG_CHECK(sum > 0.0);
  for (float& x : *v) x = static_cast<float>(x / sum);
}

Status TryCompactSoftmaxInPlace(float* v, size_t n) {
  if (n == 0) return Status::Internal("masked softmax with empty mask");
  float mx = -1e30f;
  for (size_t i = 0; i < n; ++i) mx = std::max(mx, v[i]);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::exp(v[i] - mx);
    sum += v[i];
  }
  // An all--inf row (or one whose exps all underflow) leaves a zero
  // partition sum, and a NaN or +inf logit a non-finite one; dividing would
  // poison the distribution either way.
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return Status::Internal("masked softmax with degenerate logits (sum=" +
                            std::to_string(sum) + ")");
  }
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(v[i] / sum);
  }
  return Status::Ok();
}

void ParamSnapshot::Save(const std::vector<ParamTensor*>& params) {
  values_.clear();
  values_.reserve(params.size());
  for (const ParamTensor* p : params) values_.push_back(p->value);
}

bool ParamSnapshot::Restore(const std::vector<ParamTensor*>& params) const {
  if (values_.empty()) return false;
  LSG_CHECK(values_.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    LSG_CHECK(values_[i].size() == params[i]->value.size());
    params[i]->value = values_[i];
  }
  return true;
}

double ClipGradNorm(const std::vector<ParamTensor*>& params, double max_norm) {
  double sq = 0.0;
  for (const ParamTensor* p : params) {
    const float* g = p->grad.data();
    for (size_t i = 0; i < p->grad.size(); ++i) {
      sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
    }
  }
  double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    float scale = static_cast<float>(max_norm / norm);
    for (ParamTensor* p : params) {
      float* g = p->grad.data();
      for (size_t i = 0; i < p->grad.size(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

}  // namespace lsg
