#ifndef LEARNEDSQLGEN_ANALYSIS_SQL_LINTER_H_
#define LEARNEDSQLGEN_ANALYSIS_SQL_LINTER_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "sql/ast.h"

namespace lsg {

/// Semantic lint rules. Each encodes one validity obligation the paper's FSM
/// (§5) is supposed to guarantee by construction; the linter re-checks them
/// on the finished AST so the FSM and the linter form a differential pair:
/// every FSM-emitted query must lint clean (fuzz oracle), and every lint
/// rule must be unreachable in the FSM's state graph (FsmAnalyzer).
enum class LintRule {
  kEmptyTables = 0,         ///< SELECT with no FROM tables
  kEmptySelectItems,        ///< SELECT with no projection items
  kJoinNotPkFk,             ///< a joined table has no FK edge to the chain
  kColumnOutOfScope,        ///< column ref outside the query's tables
  kOperatorTypeMismatch,    ///< operator illegal for the column type
  kAggregateTypeMismatch,   ///< SUM/AVG/MIN/MAX over a non-numeric column
  kValueTypeMismatch,       ///< literal type incompatible with the column
  kLikeOnNonString,         ///< LIKE over a numeric column / non-string rhs
  kMixedItemsWithoutGroupBy,///< plain + aggregate items but no GROUP BY
  kGroupByMissingPlainItem, ///< a plain select item absent from GROUP BY
  kGroupByNotSelectItem,    ///< GROUP BY column that is not a plain item
  kHavingWithoutGroupBy,    ///< HAVING clause without GROUP BY
  kOrderByNotSelectItem,    ///< ORDER BY column that is not a plain item
  kScalarSubqueryNotScalar, ///< scalar subquery without a single agg item
  kInSubqueryShape,         ///< IN subquery without a single plain item
  kSubqueryTypeMismatch,    ///< subquery result incomparable with lhs
  kNestingTooDeep,          ///< subquery nesting beyond the hard cap
  kDmlTargetInvalid,        ///< DML table index out of range
  kInsertArity,             ///< INSERT VALUES count != table column count
  kInsertSourceShape,       ///< INSERT..SELECT source shape mismatch
  kUpdatePrimaryKey,        ///< UPDATE SET over a primary-key column
  kNumRules,                // sentinel
};

/// Stable kebab-case rule name ("join-not-pk-fk", ...).
const char* LintRuleName(LintRule rule);

/// One lint finding: the violated rule plus a human-readable message.
struct LintIssue {
  LintRule rule = LintRule::kNumRules;
  std::string message;
};

/// AST-level semantic checker, deliberately independent of the FSM: it never
/// consults fsm/semantic_rules.cc, re-deriving every predicate (operator
/// sets, aggregate typing, FK edges) from the catalog alone so a rule gap in
/// one side cannot hide the same gap in the other.
class SqlLinter {
 public:
  /// `catalog` must outlive the linter.
  explicit SqlLinter(const Catalog* catalog);

  /// Lints a complete query of any type; empty result = clean.
  std::vector<LintIssue> Lint(const QueryAst& ast) const;

  // --- rule predicates (independent re-implementations, not forwarding to
  // fsm/semantic_rules.h; see class comment) ---

  /// Paper §4.1/§5: numeric columns take the full operator set, string and
  /// categorical columns only {=, <, >}.
  static bool OperatorAllowed(CompareOp op, DataType type);

  /// Paper §5: COUNT applies to anything; SUM/AVG/MIN/MAX need numerics.
  static bool AggregateAllowed(AggFunc agg, DataType type);

  /// Paper §5: identical types or both-numeric may be compared/joined.
  static bool TypesComparable(DataType a, DataType b);

  /// True if `value` may be compared against / stored into a column of
  /// `type` (NULL literals are never generated, so NULL is incompatible).
  static bool ValueCompatible(const Value& value, DataType type);

  /// True if the catalog holds a PK-FK edge between the two tables, scanned
  /// by name from the declared FK list, not through the catalog's join
  /// rule (AreJoinable / JoinIntoChain) that the FSM's join masks use.
  bool HasForeignKeyEdge(int table_a, int table_b) const;

 private:
  void LintSelectInto(const SelectQuery& q, int depth,
                      std::vector<LintIssue>* out) const;
  void LintWhereInto(const WhereClause& where,
                     const std::vector<int>& scope_tables, int depth,
                     std::vector<LintIssue>* out) const;
  void CheckColumn(const ColumnRef& col, const std::vector<int>& scope_tables,
                   const char* where, std::vector<LintIssue>* out) const;
  bool ColumnValid(const ColumnRef& col) const;
  DataType TypeOf(const ColumnRef& col) const;
  std::string ColumnName(const ColumnRef& col) const;

  const Catalog* catalog_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_ANALYSIS_SQL_LINTER_H_
