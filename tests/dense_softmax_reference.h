#ifndef LEARNEDSQLGEN_TESTS_DENSE_SOFTMAX_REFERENCE_H_
#define LEARNEDSQLGEN_TESTS_DENSE_SOFTMAX_REFERENCE_H_

// Full-vocabulary masked softmax, kept only as a test reference: the policy
// computes its distribution on the compacted FSM support
// (TryCompactSoftmaxInPlace), and these tests pin that the compact values
// are bitwise the masked entries of this dense form.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace lsg {
namespace testing_ref {

/// Entries with mask == 0 become exactly +0.0; the rest get the softmax of
/// the masked logits. kInternal on an empty mask or a degenerate row.
inline Status DenseMaskedSoftmax(std::vector<float>* v,
                                 const std::vector<uint8_t>& mask) {
  float mx = -1e30f;
  bool any = false;
  for (size_t i = 0; i < v->size(); ++i) {
    if (mask[i]) {
      mx = std::max(mx, (*v)[i]);
      any = true;
    }
  }
  if (!any) return Status::Internal("masked softmax with empty mask");
  double sum = 0.0;
  for (size_t i = 0; i < v->size(); ++i) {
    if (mask[i]) {
      (*v)[i] = std::exp((*v)[i] - mx);
      sum += (*v)[i];
    } else {
      (*v)[i] = 0.f;
    }
  }
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return Status::Internal("masked softmax with degenerate logits (sum=" +
                            std::to_string(sum) + ")");
  }
  for (float& x : *v) x = static_cast<float>(x / sum);
  return Status::Ok();
}

}  // namespace testing_ref
}  // namespace lsg

#endif  // LEARNEDSQLGEN_TESTS_DENSE_SOFTMAX_REFERENCE_H_
