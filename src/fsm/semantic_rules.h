#ifndef LEARNEDSQLGEN_FSM_SEMANTIC_RULES_H_
#define LEARNEDSQLGEN_FSM_SEMANTIC_RULES_H_

#include "catalog/schema.h"
#include "sql/ast.h"

namespace lsg {

/// Semantic checking rules of the paper's FSM (§5): operator/type
/// compatibility and numeric-only aggregation. The third, PK-FK-only
/// joins, is the catalog's (Catalog::AreJoinable, JoinIntoChain).

/// True if `op` may compare values of a column with this type. Numeric
/// columns support the full set; string/categorical columns support
/// {=, <, >} (paper §4.1: "support {=, >, <} for string data").
bool OperatorAllowedForType(CompareOp op, DataType type);

/// True if `agg` may be applied to a column of this type. COUNT works on
/// anything; SUM/AVG/MAX/MIN require numeric columns (§5: "only numerical
/// attributes can be included in average/sum/max/min aggregation").
bool AggregateAllowedForType(AggFunc agg, DataType type);

/// True if a table has at least one column `agg`-compatible for any of
/// MAX/MIN/SUM/AVG (i.e. a numeric column).
bool TableHasNumericColumn(const TableSchema& schema);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FSM_SEMANTIC_RULES_H_
