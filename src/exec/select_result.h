#ifndef LEARNEDSQLGEN_EXEC_SELECT_RESULT_H_
#define LEARNEDSQLGEN_EXEC_SELECT_RESULT_H_

#include <cstdint>
#include <vector>

#include "catalog/value.h"

namespace lsg {

/// Cumulative operator work observed during execution; feeds the
/// "true cost" variant of the cost model (feedback ablation).
struct ExecStats {
  /// Saturation ceiling for every counter, mirroring the estimator's
  /// CardinalityEstimator::kMaxJoinRows cap: a pathological join chain
  /// must degrade to a pinned maximum, not run the meters to inf.
  static constexpr double kMaxRows = 1e15;

  double rows_scanned = 0;
  double rows_joined = 0;   ///< tuples produced by joins
  double rows_probed = 0;   ///< tuples driving hash-probe work per join stage
  double rows_output = 0;

  static double Clamp(double v) { return v > kMaxRows ? kMaxRows : v; }

  void Add(const ExecStats& o) {
    rows_scanned = Clamp(rows_scanned + o.rows_scanned);
    rows_joined = Clamp(rows_joined + o.rows_joined);
    rows_probed = Clamp(rows_probed + o.rows_probed);
    rows_output = Clamp(rows_output + o.rows_output);
  }
};

/// Result of executing a SELECT.
struct SelectResult {
  uint64_t cardinality = 0;
  /// Values of the first projection item per output row; filled only when
  /// requested (used to evaluate IN / scalar subqueries).
  std::vector<Value> first_column;
  ExecStats stats;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_EXEC_SELECT_RESULT_H_
