#ifndef LEARNEDSQLGEN_FSM_ACTION_MASK_H_
#define LEARNEDSQLGEN_FSM_ACTION_MASK_H_

#include <cstdint>
#include <vector>

namespace lsg {

/// The actions admitted in one state, as two views of one set: a byte per
/// vocabulary id, and the admitted ids themselves in ascending order. The
/// policy reads the list (a handful of ids per step); scans over the whole
/// vocabulary read the bytes.
struct ActionMask {
  std::vector<uint8_t> bytes;  ///< bytes[id] != 0 iff id is admitted
  std::vector<int> ids;        ///< the admitted ids, ascending, no repeats
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FSM_ACTION_MASK_H_
