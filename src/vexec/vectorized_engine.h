#ifndef LEARNEDSQLGEN_VEXEC_VECTORIZED_ENGINE_H_
#define LEARNEDSQLGEN_VEXEC_VECTORIZED_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/select_result.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "vexec/batch.h"

namespace lsg {
namespace vexec {

struct VexecOptions {
  /// Join blowup bound; must match the reference evaluator's for bitwise
  /// OutOfRange agreement.
  uint64_t max_intermediate_tuples = 1ull << 24;
};

/// Columnar batch execution engine: the one production engine. Same query
/// surface and — by construction — bitwise-identical results (cardinality,
/// first_column, ExecStats, join-cap status) as the nested-loop
/// ReferenceEvaluator (src/fuzz/reference_eval.h), at vectorized speed on
/// one core:
///
///   * scans and predicate evaluation run as typed kernels over the
///     Column backing arrays (no per-row Value materialization on the hot
///     paths);
///   * FK hash joins use an open-addressing INT64 table (SplitMix64) when
///     both key columns are INT64 — every FK edge in the bundled datasets
///     — and fall back to an unordered_map<Value, ...> build otherwise;
///     either way a probe tuple's matches come out in build-row order;
///   * every stage runs serially in tuple order, so tuple order (and
///     therefore every order-sensitive double accumulation downstream)
///     matches the reference's nested loop exactly.
///
/// The sequential tail groups on typed keys read straight from the
/// Column arrays, with the same equivalence classes as the printed
/// GroupKeyOf keys the reference groups by and the same first-appearance
/// group order; HAVING and aggregates use AggregateValues over each
/// group's tuples in tuple order.
///
/// A count-only SELECT (materialize_first_column = false) builds no tuple
/// when its answer needs none (the count path): no GROUP BY and no
/// aggregate, an aggregate without GROUP BY, or GROUP BY without HAVING
/// on one chain table's columns — over INT64 FK edges, no table repeated
/// and, unless it is the aggregate, a WHERE that is AND-only or touches
/// one table. Each join stage's size, and so the ExecStats and the cap,
/// comes from per-key counts over the same hash tables; each WHERE
/// predicate runs once over its own table's rows (DESIGN.md §6j). Every
/// other query builds the join as above.
///
/// The reference evaluator is the permanent correctness oracle of both
/// paths: tests/vexec_test.cc sweeps the engine against it over every
/// bundled dataset under both materialize settings, and `lsgfuzz` (every
/// mode but serve-decode) cross-checks every fuzz episode.
///
/// The engine holds no mutable state: const query methods may run
/// concurrently on one instance.
class VectorizedEngine {
 public:
  explicit VectorizedEngine(const Database* db, VexecOptions opts = {});

  /// True result cardinality of any query type. For DML the cardinality
  /// is the number of affected rows (dry run — no mutation). Join blowup
  /// past the intermediate-tuple cap returns OutOfRange.
  StatusOr<uint64_t> Cardinality(const QueryAst& ast) const;
  /// Executes a SELECT; optionally materializes the first projection
  /// column (used by IN / scalar subqueries and the tests). Each call adds
  /// one vexec.select_ns sample and one vexec.select_queries count; its
  /// subqueries run inside that sample.
  StatusOr<SelectResult> ExecuteSelect(const SelectQuery& q,
                                       bool materialize_first_column) const;
  /// Evaluates a single-table WHERE against every row of `table_idx`,
  /// returning one bool per row (true = row matches).
  StatusOr<std::vector<bool>> MatchRows(int table_idx,
                                        const WhereClause& where) const;

 private:
  struct CountPlan;

  /// ExecuteSelect without the metrics, for subqueries.
  StatusOr<SelectResult> RunSelect(const SelectQuery& q,
                                   bool materialize_first_column) const;
  /// True when the count path answers `q` (see the class comment); fills
  /// `plan`. Pure: no query work, no errors.
  bool PlanCount(const SelectQuery& q, CountPlan* plan) const;
  /// The count path: cardinality and ExecStats from per-key join counts.
  StatusOr<SelectResult> CountSelect(const SelectQuery& q,
                                     const CountPlan& plan) const;
  StatusOr<TupleSetV> BuildJoin(const SelectQuery& q, ExecStats* stats) const;
  Status ApplyWhere(const WhereClause& where, TupleSetV* ts,
                    ExecStats* stats) const;
  /// Evaluates one predicate over all tuples into a byte mask.
  Status EvalPredicate(const Predicate& p, const TupleSetV& ts, Mask* out,
                       ExecStats* stats) const;
  /// Typed compare kernel: column `column_idx` of the table at chain
  /// position `pos` against a constant, over every tuple of `ts`.
  void CompareKernel(const TupleSetV& ts, size_t pos, int column_idx,
                     CompareOp op, const Value& constant, Mask* out) const;
  Value TupleValue(const TupleSetV& ts, size_t tuple,
                   const ColumnRef& col) const;

  const Database* db_;
  VexecOptions opts_;
};

}  // namespace vexec
}  // namespace lsg

#endif  // LEARNEDSQLGEN_VEXEC_VECTORIZED_ENGINE_H_
