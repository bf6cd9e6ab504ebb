#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/tiles.h"

namespace lsg {

Matrix Matrix::Randn(int rows, int cols, float stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return m;
}

Matrix Matrix::Xavier(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  if (rng == nullptr) return m;
  const float a = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (size_t i = 0; i < m.size(); ++i) {
    // u = k * 2^-24 from the top 24 bits, and 2u - 1 in [-1, 1), are both
    // exact in float, so the product with a is the only rounding; it
    // stays below a because (1 - 2^-23) * a <= a - ulp(a).
    const float u = static_cast<float>(rng->Next() >> 40) * 0x1.0p-24f;
    m.data()[i] = (2.f * u - 1.f) * a;
  }
  return m;
}

namespace {

// Rows per row tile. Eight independent add chains cover the
// float-add latency on both add ports; sixteen measured slower on the
// ~9-row head.
constexpr int kRowTile = 8;

// acc[r] = row_at(r) . x for the kRows rows of one tile. The j loop runs
// outside and the row loop inside, so the tile keeps kRows independent add
// chains in flight instead of waiting on float-add latency for every
// element of one row. Each row still sums ((0 + w_0 x_0) + w_1 x_1) + ...
// in ascending j, so acc[r] is bitwise the scalar one-chain dot product.
// kRows is a template constant so the accumulators live in registers.
template <int kRows, typename RowAt>
inline void RowDotTile(RowAt row_at, int cols, const float* x, float* acc) {
  const float* row[kRows];
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
    row[r] = row_at(r);
    acc[r] = 0.f;
  }
  for (int j = 0; j < cols; ++j) {
    const float xj = x[j];
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) acc[r] += row[r][j] * xj;
  }
}

}  // namespace

void MatVec(const Matrix& w, const float* x, float* y) {
  const size_t rows = static_cast<size_t>(w.rows());
  const int cols = w.cols();
  const float* wd = w.data();
  ForEachTile<kRowTile>(rows, [&]<int kRows>(size_t i0) {
    float acc[kRows];
    RowDotTile<kRows>(
        [&](int r) { return wd + (i0 + r) * static_cast<size_t>(cols); },
        cols, x, acc);
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) y[i0 + r] = acc[r];
  });
}

void MatVecRows(const Matrix& w, const float* x, const int* rows, int nrows,
                float* y) {
  const int cols = w.cols();
  const float* wd = w.data();
  ForEachTile<kRowTile>(static_cast<size_t>(nrows), [&]<int kRows>(size_t k0) {
    float acc[kRows];
    RowDotTile<kRows>(
        [&](int r) { return wd + static_cast<size_t>(rows[k0 + r]) * cols; },
        cols, x, acc);
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) y[k0 + r] = acc[r];
  });
}

namespace {

// y[0..kWidth) += a * x[0..kWidth). Every load lands in the tile before the
// first store, so GCC's SLP vectorizer packs the tile without having to
// prove that x and y do not overlap.
template <int kWidth>
inline void AxpyTile(float a, const float* x, float* y) {
  float t[kWidth];
#pragma GCC unroll 16
  for (int j = 0; j < kWidth; ++j) t[j] = y[j] + a * x[j];
#pragma GCC unroll 16
  for (int j = 0; j < kWidth; ++j) y[j] = t[j];
}

// Columns [j0, j0+kWidth) of dW += dy x^T, swept down the rows: the x tile
// is copied once into registers (a local that the row stores cannot
// clobber) and each row adds g * x to its slice.
template <int kWidth>
void OuterTile(float* wd, int rows, int cols, const float* dy, const float* x,
               size_t j0) {
  float xs[kWidth];
#pragma GCC unroll 16
  for (int j = 0; j < kWidth; ++j) xs[j] = x[j0 + j];
  for (int i = 0; i < rows; ++i) {
    const float g = dy[i];
    if (g == 0.f) continue;
    AxpyTile<kWidth>(g, xs, wd + static_cast<size_t>(i) * cols + j0);
  }
}

}  // namespace

void AxpyAccum(float a, const float* x, int n, float* y) {
  ForEachTile(static_cast<size_t>(n), [&]<int kWidth>(size_t j) {
    AxpyTile<kWidth>(a, x + j, y + j);
  });
}

namespace {

// Rows per forward-panel chunk: the accumulator vector lives on the stack,
// and 128 rows hold the 4H gate column of an LSTM of up to 32 units.
constexpr size_t kPanelChunk = 128;

// y (+)= W x from a packed tensor's forward panel (panel[j * rows + i] =
// W(i, j)). Each chunk of output rows starts from +0, adds panel column j
// times x[j] for j ascending (one multiply and one add per element, as in
// the scalar row loop), then stores or adds the finished sums once.
template <bool kAccum>
void PanelMatVec(const ParamTensor& w, const float* x, float* y) {
  LSG_CHECK(w.packed());
  const float* panel = w.panel();
  const size_t rows = static_cast<size_t>(w.value().rows());
  const int cols = w.value().cols();
  for (size_t i0 = 0; i0 < rows; i0 += kPanelChunk) {
    const size_t n = std::min(kPanelChunk, rows - i0);
    float acc[kPanelChunk];
    std::fill(acc, acc + n, 0.f);
    for (int j = 0; j < cols; ++j) {
      const float xj = x[j];
      const float* col = panel + static_cast<size_t>(j) * rows + i0;
      ForEachTile(n, [&]<int kWidth>(size_t i) {
        AxpyTile<kWidth>(xj, col + i, acc + i);
      });
    }
    for (size_t i = 0; i < n; ++i) {
      if (kAccum) {
        y[i0 + i] += acc[i];
      } else {
        y[i0 + i] = acc[i];
      }
    }
  }
}

}  // namespace

void MatMat(const ParamTensor& w, const float* x, float* y) {
  PanelMatVec<false>(w, x, y);
}

void MatMatAccum(const ParamTensor& w, const float* x, float* y) {
  PanelMatVec<true>(w, x, y);
}

void MatTVecAccum(const Matrix& w, const float* dy, float* dx) {
  const int r = w.rows();
  const int c = w.cols();
  const float* wd = w.data();
  // Row by row, so every dx[j] keeps its ascending-row sum order.
  for (int i = 0; i < r; ++i) {
    const float g = dy[i];
    if (g == 0.f) continue;
    AxpyAccum(g, wd + static_cast<size_t>(i) * c, c, dx);
  }
}

void OuterAccum(Matrix* dw, const float* dy, const float* x) {
  const int r = dw->rows();
  const int c = dw->cols();
  float* wd = dw->data();
  ForEachTile(static_cast<size_t>(c), [&]<int kWidth>(size_t j0) {
    OuterTile<kWidth>(wd, r, c, dy, x, j0);
  });
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

void ParamTensor::Repack() {
  if (!packed_) return;
  const size_t rows = static_cast<size_t>(value_.rows());
  const size_t cols = static_cast<size_t>(value_.cols());
  panel_.resize(rows * cols);
  const float* v = value_.data();
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) panel_[j * rows + i] = v[i * cols + j];
  }
}

Matrix* ParamTensor::mutable_grad() {
  AllocateGrad();
  const int cols = grad_.cols();
  if (live_runs_.size() != 1 || live_runs_[0].end - live_runs_[0].begin != cols) {
    live_runs_.assign(1, ColumnRun{0, cols});
  }
  return &grad_;
}

void ParamTensor::AccumulateColumn(int c, const float* d, float scale) {
  AllocateGrad();
  LSG_DCHECK(c >= 0 && c < grad_.cols());
  // The first run starting after c; the one before it is the only run that
  // can contain c or end right at it.
  auto next = std::upper_bound(
      live_runs_.begin(), live_runs_.end(), c,
      [](int col, const ColumnRun& r) { return col < r.begin; });
  auto prev = next == live_runs_.begin() ? live_runs_.end() : next - 1;
  if (prev == live_runs_.end() || c >= prev->end) {
    const bool joins_prev = prev != live_runs_.end() && prev->end == c;
    const bool joins_next = next != live_runs_.end() && next->begin == c + 1;
    if (joins_prev && joins_next) {
      prev->end = next->end;
      live_runs_.erase(next);
    } else if (joins_prev) {
      prev->end = c + 1;
    } else if (joins_next) {
      next->begin = c;
    } else {
      live_runs_.insert(next, ColumnRun{c, c + 1});
    }
  }
  for (int r = 0; r < grad_.rows(); ++r) grad_.at(r, c) += d[r] * scale;
}

bool ParamTensor::IsLive(int c) const {
  for (const ColumnRun& r : live_runs_) {
    if (c < r.begin) return false;
    if (c < r.end) return true;
  }
  return false;
}

void ParamSnapshot::Save(const std::vector<ParamTensor*>& params) {
  // Copy-assignment reuses each saved buffer once the first Save sized it.
  values_.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) values_[i] = params[i]->value();
}

bool ParamSnapshot::Restore(const std::vector<ParamTensor*>& params) const {
  if (values_.empty()) return false;
  LSG_CHECK(values_.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    LSG_CHECK(values_[i].size() == params[i]->value().size());
    params[i]->UpdateValue([&](Matrix* v) { *v = values_[i]; });
  }
  return true;
}

double ClipGradNorm(const std::vector<ParamTensor*>& params, double max_norm) {
  double sq = 0.0;
  for (ParamTensor* p : params) {
    p->ForEachLiveSpan([&sq](size_t, size_t n, const float* g) {
      for (size_t i = 0; i < n; ++i) {
        // A ±0 entry would add +0 to a non-negative sum: skipping it keeps
        // every bit, and NaN and ±inf still enter.
        if (g[i] == 0.f) continue;
        sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
      }
    });
  }
  double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    float scale = static_cast<float>(max_norm / norm);
    for (ParamTensor* p : params) {
      p->ForEachLiveSpan([scale](size_t, size_t n, float* g) {
        for (size_t i = 0; i < n; ++i) g[i] *= scale;
      });
    }
  }
  return norm;
}

}  // namespace lsg
