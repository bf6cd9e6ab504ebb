#ifndef LEARNEDSQLGEN_FUZZ_REFERENCE_EVAL_H_
#define LEARNEDSQLGEN_FUZZ_REFERENCE_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/select_result.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace lsg {

/// Naive reference evaluator: the execution oracle of the vectorized
/// engine (src/vexec/), compared with it directly by the tests, the
/// fuzzer's DifferentialOracle and `lsgfuzz --oracle vexec`. It has the
/// engine's surface (ExecuteSelect, Cardinality, MatchRows) and its
/// documented semantics — FK-edge join selection, NULL never matches,
/// uncorrelated subqueries evaluated once per predicate, COUNT skips
/// NULLs, groups in first-appearance order — with the simplest possible
/// code: row-at-a-time nested loops, no hashing, its own aggregation.
///
/// The results are comparable field by field: cardinality, first column,
/// the ExecStats meters (each chain table's rows scanned, each join
/// stage's input probed and output joined, the output rows, and each
/// subquery's stats added once per evaluation) and the join cap, which
/// returns OutOfRange("join intermediate exceeds limit") once a stage's
/// running size passes `max_intermediate_tuples`. The nested loop emits a
/// stage's tuples in the hash join's order: probe tuple, then build rows
/// ascending.
///
/// Evaluation is metered apart from the cap: every inner-loop comparison
/// consumes work, and once `max_work` is exhausted the evaluation returns
/// ResourceExhausted so callers can skip pathologically expensive queries
/// instead of stalling. The meter restarts at every public call.
class ReferenceEvaluator {
 public:
  /// `db` must outlive the evaluator.
  explicit ReferenceEvaluator(const Database* db,
                              uint64_t max_work = 1ull << 26,
                              uint64_t max_intermediate_tuples = 1ull << 24)
      : db_(db),
        max_work_(max_work),
        max_intermediate_tuples_(max_intermediate_tuples) {}

  /// Evaluates a SELECT by nested loops; `materialize_first_column` only
  /// decides whether first_column is filled.
  StatusOr<SelectResult> ExecuteSelect(const SelectQuery& q,
                                       bool materialize_first_column) const;

  /// Result cardinality of any query type; for DML this is the number of
  /// affected rows (INSERT VALUES = 1).
  StatusOr<uint64_t> Cardinality(const QueryAst& ast) const;

  /// One bool per row of `table_idx`: whether it satisfies `where`.
  StatusOr<std::vector<bool>> MatchRows(int table_idx,
                                        const WhereClause& where) const;

 private:
  /// Joined rows, row-major: tuple t's row of chain position p is
  /// rows[t * width + p].
  struct Tuples {
    size_t width = 1;
    std::vector<uint32_t> rows;

    size_t size() const { return rows.size() / width; }
    const uint32_t* at(size_t t) const { return rows.data() + t * width; }
  };

  StatusOr<SelectResult> Select(const SelectQuery& q, bool materialize) const;
  StatusOr<Tuples> Join(const std::vector<int>& tables,
                        ExecStats* stats) const;
  StatusOr<Tuples> Filter(const std::vector<int>& tables,
                          const WhereClause& where, const Tuples& in,
                          ExecStats* stats) const;
  Value TupleValue(const std::vector<int>& tables, const uint32_t* tup,
                   const ColumnRef& col) const;
  static Value AggValues(AggFunc agg, const std::vector<Value>& values);
  Status Charge(uint64_t units) const;

  const Database* db_;
  uint64_t max_work_;
  uint64_t max_intermediate_tuples_;
  mutable uint64_t work_ = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FUZZ_REFERENCE_EVAL_H_
