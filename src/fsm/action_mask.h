#ifndef LEARNEDSQLGEN_FSM_ACTION_MASK_H_
#define LEARNEDSQLGEN_FSM_ACTION_MASK_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace lsg {

/// The actions admitted in one state, as two views of one set: a byte per
/// vocabulary id, and the admitted ids themselves in ascending order. The
/// policy and the uniform pick read the list (a handful of ids per step);
/// scans over the whole vocabulary read the bytes.
struct ActionMask {
  std::vector<uint8_t> bytes;  ///< bytes[id] != 0 iff id is admitted
  std::vector<int> ids;        ///< the admitted ids, ascending, no repeats
};

/// The one uniform pick (every admitted action equiprobable): a reservoir
/// walk over `mask.ids` drawing Uniform(1), Uniform(2), ..., one draw per
/// admitted id. `ids` lists the admitted bytes in ascending order, so the
/// id and the draws are those of the same walk over `mask.bytes`.
/// kInternal for an empty mask.
inline StatusOr<int> UniformAction(const ActionMask& mask, Rng* rng) {
  int chosen = -1;
  uint64_t seen = 0;
  for (int id : mask.ids) {
    ++seen;
    if (rng->Uniform(seen) == 0) chosen = id;
  }
  if (chosen < 0) return Status::Internal("FSM produced an empty action mask");
  return chosen;
}

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FSM_ACTION_MASK_H_
