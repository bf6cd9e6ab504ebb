#ifndef LEARNEDSQLGEN_TESTS_LOGICAL_PARAMS_H_
#define LEARNEDSQLGEN_TESTS_LOGICAL_PARAMS_H_

// Tests see a ParamTensor in its logical (R x C) row-major order
// (ParamTensor::LogicalOffset), not in its storage layout: the fixed-seed
// parameter pins hash that order, and the scalar references read that
// shape, so a token-major tensor hashes and multiplies as its (R x C)
// layout would.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace lsg {
namespace testing_ref {

/// The logical (R x C) matrix of `m`, a matrix shaped like p's storage:
/// its value, gradient or an Adam moment.
inline Matrix LogicalCopy(const ParamTensor& p, const Matrix& m) {
  Matrix out(p.logical_rows(), p.logical_cols());
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      out.at(r, c) = m.data()[p.LogicalOffset(r, c)];
    }
  }
  return out;
}

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a over the bytes of `n` floats, continuing from h.
inline uint64_t HashFloats(uint64_t h, const float* v, size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v);
  for (size_t i = 0; i < n * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

/// Continues h over p's values in logical row-major order.
inline uint64_t LogicalValueHash(uint64_t h, const ParamTensor& p) {
  for (int r = 0; r < p.logical_rows(); ++r) {
    for (int c = 0; c < p.logical_cols(); ++c) {
      h = HashFloats(h, p.value().data() + p.LogicalOffset(r, c), 1);
    }
  }
  return h;
}

/// LogicalValueHash over every tensor, in order, from the FNV offset.
template <typename Tensor>
uint64_t HashParams(const std::vector<Tensor*>& params) {
  uint64_t h = kFnvOffset;
  for (const ParamTensor* p : params) h = LogicalValueHash(h, *p);
  return h;
}

}  // namespace testing_ref
}  // namespace lsg

#endif  // LEARNEDSQLGEN_TESTS_LOGICAL_PARAMS_H_
