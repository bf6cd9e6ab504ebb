#ifndef LEARNEDSQLGEN_NN_ADAM_H_
#define LEARNEDSQLGEN_NN_ADAM_H_

#include <vector>

#include "nn/matrix.h"

namespace lsg {

/// Adam optimizer over a fixed set of parameter tensors. Step() consumes
/// (and zeroes) the accumulated gradients. Both visit live gradient rows
/// only (ParamTensor::ForEachLiveSpan), one contiguous span per run of live
/// rows; the moments of a row that never received a gradient stay exactly
/// +0. The update is elementwise, so a token-major tensor's storage order
/// changes no bit.
class Adam {
 public:
  Adam(std::vector<ParamTensor*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void Step();

  /// Drops accumulated gradients without updating.
  void ZeroGrad();

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }
  int64_t steps() const { return t_; }

  /// First and second moment estimates, one per parameter tensor in
  /// construction order.
  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }

 private:
  std::vector<ParamTensor*> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  float lr_, beta1_, beta2_, eps_;
  int64_t t_ = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_NN_ADAM_H_
