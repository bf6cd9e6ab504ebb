#ifndef LEARNEDSQLGEN_EXEC_EXPRESSION_H_
#define LEARNEDSQLGEN_EXEC_EXPRESSION_H_

#include <vector>

#include "catalog/value.h"
#include "sql/ast.h"

namespace lsg {

/// Evaluates `a op b` with SQL comparison semantics. Any NULL operand makes
/// the comparison false.
bool CompareValues(const Value& a, CompareOp op, const Value& b);

/// Combines per-predicate truth values with the connector chain, honoring
/// SQL precedence (AND binds tighter than OR). `conns.size()` must be
/// `preds.size() - 1`; an empty chain yields true.
bool CombinePredicates(const std::vector<bool>& preds,
                       const std::vector<BoolConn>& conns);

/// Same combination rule applied to selectivities (independence for AND,
/// inclusion-exclusion for OR) — shared by the cardinality estimator.
double CombineSelectivities(const std::vector<double>& sels,
                            const std::vector<BoolConn>& conns);

/// SQL LIKE matching: '%' matches any run (including empty), '_' matches
/// exactly one character; everything else is literal. Case-sensitive.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// Computes `agg` over `values` in order (NULLs skipped). COUNT of an
/// empty input is 0; the other aggregates yield NULL. SUM/AVG accumulate
/// as a left fold in input order, so two engines that feed the same
/// values in the same order produce bitwise-identical doubles — the
/// invariant the vectorized engine's differential oracle relies on.
/// Used by vexec; the fuzzing ReferenceEvaluator keeps an independent copy
/// so the oracle still cross-checks aggregation.
Value AggregateValues(AggFunc agg, const std::vector<Value>& values);

/// Serialized GROUP BY key: rendered literals joined by 0x1f. The
/// ReferenceEvaluator buckets by exactly this string; the vectorized
/// engine's typed keys reproduce its partition (grouping by
/// Value::Compare instead would merge values whose literals differ, e.g.
/// across numeric type ranks). See DESIGN.md §6j for the classes.
std::string GroupKeyOf(const std::vector<Value>& vals);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_EXEC_EXPRESSION_H_
