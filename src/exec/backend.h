#ifndef LEARNEDSQLGEN_EXEC_BACKEND_H_
#define LEARNEDSQLGEN_EXEC_BACKEND_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace lsg {

struct SelectResult;

/// Which execution engine answers true-cardinality / true-cost queries.
enum class ExecutionBackendKind {
  /// The tuple-at-a-time Executor (src/exec/executor.*). Permanent
  /// correctness oracle — simple, scalar, always available; opt-in as a
  /// production backend.
  kReference = 0,
  /// The columnar batch engine (src/vexec/), the default: morsel-parallel
  /// scans, typed hash joins, vectorized predicates, typed GROUP BY keys.
  /// Bitwise-equivalent results (cardinality, first column, ExecStats) at
  /// 10–100× the throughput; differentially tested against kReference on
  /// every fuzz episode.
  kVectorized = 1,
};

/// Abstract query-execution surface shared by the reference Executor and
/// the vectorized engine, so Environment / GenerationService pick a
/// backend per options without caring which one they got. All methods are
/// const and safe to call concurrently from multiple threads *holding
/// distinct backend instances*; one instance is single-query-at-a-time.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// True result cardinality of any query type. For DML the cardinality
  /// is the number of affected rows (dry run — no mutation). Join blowup
  /// past the intermediate-tuple cap returns OutOfRange.
  virtual StatusOr<uint64_t> Cardinality(const QueryAst& ast) const = 0;

  /// Executes a SELECT; optionally materializes the first projection
  /// column (used by IN / scalar subqueries and the tests).
  virtual StatusOr<SelectResult> ExecuteSelect(
      const SelectQuery& q, bool materialize_first_column) const = 0;

  /// Evaluates a single-table WHERE against every row of `table_idx`,
  /// returning one bool per row (true = row matches). Used to apply
  /// UPDATE/DELETE for real and by the fuzzing oracles.
  virtual StatusOr<std::vector<bool>> MatchRows(
      int table_idx, const WhereClause& where) const = 0;

  virtual const Database* database() const = 0;

  /// Stable backend name for logs / metrics ("reference", "vectorized").
  virtual const char* name() const = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_EXEC_BACKEND_H_
