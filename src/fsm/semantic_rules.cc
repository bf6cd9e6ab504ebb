#include "fsm/semantic_rules.h"

namespace lsg {

bool OperatorAllowedForType(CompareOp op, DataType type) {
  if (IsNumeric(type)) return op != CompareOp::kNumOps;
  switch (op) {
    case CompareOp::kEq:
    case CompareOp::kLt:
    case CompareOp::kGt:
      return true;
    default:
      return false;
  }
}

bool AggregateAllowedForType(AggFunc agg, DataType type) {
  switch (agg) {
    case AggFunc::kCount:
      return true;
    case AggFunc::kMax:
    case AggFunc::kMin:
    case AggFunc::kSum:
    case AggFunc::kAvg:
      return IsNumeric(type);
    case AggFunc::kNone:
      return true;
  }
  return false;
}

bool TableHasNumericColumn(const TableSchema& schema) {
  for (const ColumnSchema& c : schema.columns()) {
    if (IsNumeric(c.type)) return true;
  }
  return false;
}

}  // namespace lsg
