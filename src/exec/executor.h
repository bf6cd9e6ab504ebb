#ifndef LEARNEDSQLGEN_EXEC_EXECUTOR_H_
#define LEARNEDSQLGEN_EXEC_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/table.h"

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

/// Executes SELECT queries against an in-memory Database and returns true
/// result cardinalities. Pipeline: FK hash joins in chain order, then WHERE
/// (uncorrelated subqueries evaluated once), then GROUP BY / HAVING /
/// aggregate collapse. This is the tuple-at-a-time *reference* engine; the
/// vectorized engine in src/vexec/ must match it bitwise (cardinality,
/// first_column, ExecStats) and is differentially tested against it.
class Executor {
 public:
  /// `db` must outlive the executor. `max_intermediate_tuples` bounds join
  /// blowup; exceeding it returns OutOfRange.
  explicit Executor(const Database* db,
                    uint64_t max_intermediate_tuples = 1ull << 24);

  /// True result cardinality of any query type. For DML the cardinality is
  /// the number of affected rows (dry run — the database is not mutated).
  StatusOr<uint64_t> Cardinality(const QueryAst& ast) const;

  /// Executes a SELECT; optionally materializes the first projection column.
  /// Each call adds one exec.select_ns sample; its subqueries run inside
  /// that sample.
  StatusOr<SelectResult> ExecuteSelect(
      const SelectQuery& q, bool materialize_first_column) const;

  /// Evaluates a single-table WHERE against every row of `table_idx`,
  /// returning one bool per row (true = row matches). Used to apply
  /// UPDATE/DELETE for real and by the fuzzing oracle.
  StatusOr<std::vector<bool>> MatchRows(
      int table_idx, const WhereClause& where) const;

  const Database* db() const { return db_; }

 private:
  // Joined working set: row-major tuple store, stride = #tables in chain.
  struct TupleSet {
    std::vector<int> tables;        // catalog table indices, chain order
    std::vector<uint32_t> flat;     // size = count * tables.size()
    size_t count = 0;
  };

  /// ExecuteSelect without the metric, for subqueries.
  StatusOr<SelectResult> RunSelect(const SelectQuery& q,
                                   bool materialize_first_column) const;
  StatusOr<TupleSet> BuildJoin(const SelectQuery& q, ExecStats* stats) const;
  Status ApplyWhere(const WhereClause& where, TupleSet* ts,
                    ExecStats* stats) const;

  /// Evaluates one predicate for every tuple into `out`.
  Status EvalPredicate(const Predicate& p, const TupleSet& ts,
                       std::vector<bool>* out, ExecStats* stats) const;

  Value TupleValue(const TupleSet& ts, size_t tuple, const ColumnRef& col) const;

  const Database* db_;
  uint64_t max_intermediate_tuples_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_EXEC_EXECUTOR_H_
