#ifndef LEARNEDSQLGEN_VEXEC_BATCH_H_
#define LEARNEDSQLGEN_VEXEC_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lsg {
namespace vexec {

/// Batch granule of the filter: WHERE survivors are selected batch by
/// batch in tuple order. 2048 × 4-byte row ids fits comfortably in L1
/// alongside one predicate mask, the classic vector-at-a-time sweet spot.
/// The planted sel-vector-off-by-one defect drops the last tuple of every
/// batch, so the boundary tests straddle multiples of it.
inline constexpr size_t kBatchSize = 2048;

/// Predicate result mask: one byte per tuple (0 = filtered, 1 = kept).
using Mask = std::vector<uint8_t>;

/// Joined working set, columnar by chain position: cols[pos][t] is the row
/// id of tuple t in the table at chain position pos, laid out so that join
/// probes and predicate gathers touch one contiguous array per table.
/// Tuple order (t) is identical to the reference evaluator's — this is
/// what makes every downstream result bitwise comparable.
struct TupleSetV {
  std::vector<int> tables;                     ///< catalog table indices
  std::vector<std::vector<uint32_t>> cols;     ///< size = tables.size()
  size_t count = 0;

  size_t ChainPos(int table_idx) const {
    for (size_t j = 0; j < tables.size(); ++j) {
      if (tables[j] == table_idx) return j;
    }
    return tables.size();  // not in scope; callers treat as NULL column
  }
};

}  // namespace vexec
}  // namespace lsg

#endif  // LEARNEDSQLGEN_VEXEC_BATCH_H_
