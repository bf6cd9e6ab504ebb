#ifndef LEARNEDSQLGEN_NN_MATRIX_H_
#define LEARNEDSQLGEN_NN_MATRIX_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace lsg {

/// Dense row-major float matrix. The networks here are tiny (2-layer LSTM,
/// 30 units — the paper's architecture), so simple loops beat any BLAS
/// setup cost; correctness and clarity win.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols), v_(rows * cols, 0.f) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return v_.size(); }

  float& at(int r, int c) { return v_[static_cast<size_t>(r) * cols_ + c]; }
  const float& at(int r, int c) const {
    return v_[static_cast<size_t>(r) * cols_ + c];
  }

  float* data() { return v_.data(); }
  const float* data() const { return v_.data(); }

  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols); }

  /// Gaussian values with the given stddev (test and bench data; network
  /// weights start from Xavier).
  static Matrix Randn(int rows, int cols, float stddev, Rng* rng);

  /// Glorot-uniform init: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)),
  /// which has Xavier's variance a^2 / 3 = 2 / (fan_in + fan_out). One
  /// rng->Next() per weight, in row-major order. A null rng leaves the
  /// zeros: a shape for LoadParams to fill.
  static Matrix Xavier(int rows, int cols, Rng* rng);

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> v_;
};

/// A learnable tensor: value plus accumulated gradient.
///
/// A packed tensor also keeps a forward panel: value transposed into a
/// column-major copy (panel[j * rows + i] = value(i, j)), which MatMat
/// below reads as contiguous column slices; only a packed tensor can be
/// multiplied there. The panel is refreshed by every write to value, and
/// UpdateValue is the only write access, so a panel is never stale:
/// construction, Adam::Step, ParamSnapshot::Restore and LoadParams all go
/// through it.
///
/// Gradient columns go "live" on their first write and stay live. A tensor
/// fed by one-hot inputs (an LSTM's token-input Wx) only ever receives
/// gradients one column at a time, so after an epoch most of its columns
/// have never been touched; the optimizer tail (ClipGradNorm, Adam, zeroing)
/// visits only live entries, through ForEachLiveSpan. That is exact: a
/// never-touched column has g = m = v = +0, so Adam's update there is a
/// no-op and its terms add nothing to the clipping norm. A dense writer
/// marks every column live, so a dense tensor is simply the all-live case.
/// The two writers below are the only ways to modify the gradient, and both
/// mark what they write.
class ParamTensor {
 public:
  ParamTensor() = default;
  ParamTensor(std::string n, Matrix v, bool packed = false)
      : name(std::move(n)), value_(std::move(v)), packed_(packed) {
    Repack();
  }

  std::string name;

  const Matrix& value() const { return value_; }

  /// The one write access to value: calls fn(Matrix*) on it, then
  /// refreshes the forward panel (O(value.size()), only when packed).
  template <typename Fn>
  void UpdateValue(Fn&& fn) {
    fn(&value_);
    Repack();
  }

  bool packed() const { return packed_; }
  /// The forward panel (packed tensors only).
  const float* panel() const { return panel_.data(); }

  /// The gradient: empty until its first write (so a tensor that is only
  /// ever read, like a loaded model's, never allocates one), value-shaped
  /// and +0 outside the live columns from then on.
  const Matrix& grad() const { return grad_; }

  /// Whole-gradient write access; marks every column live.
  Matrix* mutable_grad();

  /// grad(:, c) += d * scale (d has rows() entries); marks column c live.
  void AccumulateColumn(int c, const float* d, float scale = 1.f);

  /// Whether column c has ever received a gradient.
  bool IsLive(int c) const;

  /// Frees the gradient and its live columns, for a tensor that is only
  /// read from now on (a served model).
  void ReleaseGradient() {
    grad_ = Matrix();
    live_runs_ = std::vector<ColumnRun>();
  }

  /// Calls fn(k, n, g) for each maximal run of live gradient entries in
  /// row-major order: flat indices [k, k+n) into value/grad, with g pointing
  /// at grad[k]. An all-live tensor is one run; entries outside the runs are
  /// exactly +0 and are not visited.
  template <typename Fn>
  void ForEachLiveSpan(Fn&& fn) {
    const size_t cols = static_cast<size_t>(grad_.cols());
    size_t start = 0;
    size_t len = 0;
    for (size_t base = 0; base < grad_.size(); base += cols) {
      for (const ColumnRun& r : live_runs_) {
        const size_t k = base + r.begin;
        const size_t n = static_cast<size_t>(r.end - r.begin);
        if (k == start + len) {
          len += n;  // continues the pending run (across rows when dense)
          continue;
        }
        if (len > 0) fn(start, len, grad_.data() + start);
        start = k;
        len = n;
      }
    }
    if (len > 0) fn(start, len, grad_.data() + start);
  }

 private:
  /// Live columns [begin, end): sorted, disjoint and non-adjacent.
  struct ColumnRun {
    int begin;
    int end;
  };

  void Repack();
  /// Gives the gradient value's shape, all +0, before its first write.
  void AllocateGrad() {
    if (grad_.size() != value_.size()) {
      grad_ = Matrix::Zeros(value_.rows(), value_.cols());
    }
  }

  Matrix value_;
  bool packed_ = false;
  std::vector<float> panel_;  ///< value transposed; empty unless packed
  Matrix grad_;
  std::vector<ColumnRun> live_runs_;
};

/// y = W x  (y: rows, x: cols). The row-major forward kernels (MatVec,
/// MatVecRows) run fixed-width tiles of rows with one independent
/// accumulator per row; each row still sums its products in ascending-j
/// order from +0, so every output is bitwise the one-chain scalar dot
/// product.
void MatVec(const Matrix& w, const float* x, float* y);

/// Gathered-row product: y[k] = (row rows[k] of W) . x for k < nrows. Rows
/// may repeat and come in any order; each y[k] is bitwise MatVec's entry
/// for that row.
void MatVecRows(const Matrix& w, const float* x, const int* rows, int nrows,
                float* y);

/// y = W x for a packed tensor's value W, through its forward panel: the
/// whole output column is one accumulator vector, and acc += panel column
/// j * x[j] sweeps j ascending as fixed-width AxpyAccum tiles. Every output
/// is bitwise the one-chain scalar dot product of its row,
/// ((0 + w_0 x_0) + w_1 x_1) + ... in ascending j.
void MatMat(const ParamTensor& w, const float* x, float* y);

/// y += W x, the same product. Each output's sum is computed first and
/// added once.
void MatMatAccum(const ParamTensor& w, const float* x, float* y);

/// dx += W^T dy.
void MatTVecAccum(const Matrix& w, const float* dy, float* dx);

/// dW += dy x^T (outer product accumulate).
void OuterAccum(Matrix* dw, const float* dy, const float* x);

/// y[j] += a * x[j] for j < n. The backward kernels (OuterAccum,
/// MatTVecAccum, Linear::BackwardRows) are row loops of this. Each element
/// is one multiply then one add, as in the scalar loop, so the fixed-width
/// vector tiles it runs in are bitwise-identical to it.
void AxpyAccum(float a, const float* x, int n, float* y);

/// Softmax over an FSM mask's compacted logits: `v` holds only the masked
/// entries, in ascending vocabulary order. In a full-vocabulary masked
/// softmax every unmasked entry is an exact +0.0 that enters neither the max
/// nor the partition sum, so these values are bitwise the masked entries of
/// that distribution. An empty span (n == 0) or a degenerate row (every
/// logit -inf or overflowed, so the partition sum is zero or non-finite)
/// comes back as kInternal instead of taking the process down; `v` is then
/// unspecified.
Status TryCompactSoftmaxInPlace(float* v, size_t n);

/// Rescales all gradients so their global L2 norm is at most max_norm.
/// Returns the pre-clip norm. Visits live gradient entries only (see
/// ParamTensor): the skipped entries are +0 and change neither the sum nor
/// their own scaled value. The sum also skips live ±0 entries (most of the
/// policy head's, which BackwardRows marks all-live), whose +0 square
/// would leave the non-negative sum unchanged.
double ClipGradNorm(const std::vector<ParamTensor*>& params, double max_norm);

/// In-memory checkpoint of a parameter set (keep-best-policy snapshots).
class ParamSnapshot {
 public:
  /// Copies the current values.
  void Save(const std::vector<ParamTensor*>& params);

  /// Writes the saved values back; returns false if nothing was saved.
  /// Shapes must match the saved set.
  bool Restore(const std::vector<ParamTensor*>& params) const;

  bool empty() const { return values_.empty(); }

 private:
  std::vector<Matrix> values_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_NN_MATRIX_H_
