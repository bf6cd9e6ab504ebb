#ifndef LEARNEDSQLGEN_NN_SERIALIZE_H_
#define LEARNEDSQLGEN_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/matrix.h"

namespace lsg {

/// Writes parameter values to a binary file (magic + per-tensor
/// name/shape/data). Each tensor is written in its logical shape and
/// row-major order, so a token-major tensor's file is the one its (R x C)
/// layout would write; it is transposed through a buffer of 16 logical
/// rows, never a whole-tensor copy. Gradients are not saved.
Status SaveParams(const std::vector<const ParamTensor*>& params,
                  const std::string& path);
Status SaveParams(const std::vector<ParamTensor*>& params,
                  const std::string& path);

/// Loads parameter values saved by SaveParams. Names and logical shapes
/// must match the current parameter set exactly (model architecture is
/// code, not data).
Status LoadParams(const std::vector<ParamTensor*>& params,
                  const std::string& path);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_NN_SERIALIZE_H_
