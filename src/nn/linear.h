#ifndef LEARNEDSQLGEN_NN_LINEAR_H_
#define LEARNEDSQLGEN_NN_LINEAR_H_

#include <vector>

#include "nn/matrix.h"

namespace lsg {

/// Fully connected layer y = Wx + b with explicit backward.
class Linear {
 public:
  Linear(int input_dim, int output_dim, Rng* rng);

  int input_dim() const { return w_.value().cols(); }
  int output_dim() const { return w_.value().rows(); }

  /// y must have room for output_dim floats.
  void Forward(const float* x, float* y) const;

  /// Sparse-row forward: y[k] = Forward(x)[rows[k]] for each of the nrows
  /// requested output rows. Each row is the same ascending-j dot product
  /// plus bias as Forward, so the requested entries are bitwise-identical
  /// to a full forward — the policy head asks for the handful of FSM-valid
  /// vocabulary rows instead of the whole output layer.
  void ForwardRows(const float* x, const int* rows, int nrows,
                   float* y) const;

  /// Accumulates parameter gradients and (optionally) input gradients.
  /// `x` must be the forward input that produced `dy`.
  void Backward(const float* x, const float* dy, float* dx_or_null);

  /// Sparse-row backward mirroring ForwardRows: dy[k] is the output
  /// gradient of row rows[k] (ascending), every other row's is zero. Rows
  /// with a zero gradient contribute nothing to Backward either (its outer
  /// product and W^T dy skip them, and a bias gradient never holds -0 that
  /// adding +0 could flip), so the accumulated gradients are
  /// bitwise-identical to Backward over the dense dy.
  void BackwardRows(const float* x, const int* rows, int nrows,
                    const float* dy, float* dx_or_null);

  std::vector<ParamTensor*> Params() { return {&w_, &b_}; }
  std::vector<const ParamTensor*> Params() const { return {&w_, &b_}; }

 private:
  ParamTensor w_;
  ParamTensor b_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_NN_LINEAR_H_
