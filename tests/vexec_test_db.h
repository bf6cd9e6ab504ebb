#ifndef LEARNEDSQLGEN_TESTS_VEXEC_TEST_DB_H_
#define LEARNEDSQLGEN_TESTS_VEXEC_TEST_DB_H_

// Hand-built tables and query pieces shared by the vectorized-engine suite
// (vexec_test.cc) and its mutant builds (vexec_mutant_test.cc).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace lsg {

/// Two tables joined by an FK edge, with full control over the key
/// columns: Fact(id PK, key INT64 nullable, v DOUBLE) -> Dim(id PK
/// via key, tag STRING). `fact_keys`/`dim_ids` use INT64_MIN as NULL.
constexpr int64_t kNull = INT64_MIN;

inline Database BuildJoinDb(const std::vector<int64_t>& fact_keys,
                            const std::vector<int64_t>& dim_ids) {
  Database db;
  {
    TableSchema s("Dim");
    LSG_CHECK_OK(s.AddColumn({"id", DataType::kInt64, true, true}));
    LSG_CHECK_OK(s.AddColumn({"tag", DataType::kString, false, false}));
    Table t(std::move(s));
    for (size_t i = 0; i < dim_ids.size(); ++i) {
      Value id = dim_ids[i] == kNull ? Value::Null() : Value(dim_ids[i]);
      LSG_CHECK_OK(t.AppendRow({id, Value("d" + std::to_string(i))}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  {
    TableSchema s("Fact");
    LSG_CHECK_OK(s.AddColumn({"id", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"key", DataType::kInt64, false, true}));
    LSG_CHECK_OK(s.AddColumn({"v", DataType::kDouble, false, false}));
    Table t(std::move(s));
    for (size_t i = 0; i < fact_keys.size(); ++i) {
      Value key =
          fact_keys[i] == kNull ? Value::Null() : Value(fact_keys[i]);
      LSG_CHECK_OK(t.AppendRow({Value(static_cast<int64_t>(i)), key,
                                Value(static_cast<double>(i) * 0.5)}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  LSG_CHECK_OK(db.AddForeignKey({"Fact", "key", "Dim", "id"}));
  return db;
}

inline SelectQuery SelectAll(int table_idx, int item_col = 0) {
  SelectQuery q;
  q.tables = {table_idx};
  SelectItem item;
  item.column = {table_idx, item_col};
  q.items.push_back(std::move(item));
  return q;
}

inline Predicate ValuePred(int table_idx, int column_idx, CompareOp op,
                           Value v) {
  Predicate p;
  p.kind = PredicateKind::kValue;
  p.column = {table_idx, column_idx};
  p.op = op;
  p.value = std::move(v);
  return p;
}

}  // namespace lsg

#endif  // LEARNEDSQLGEN_TESTS_VEXEC_TEST_DB_H_
