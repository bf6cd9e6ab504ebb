// The mutant halves of the vexec lockstep oracle's mutation tests. This
// file is built only against a mutant engine (tests/mutants/README.md), one
// binary per mutant, and each ctest entry runs the case of its mutant:
// the mutant must diverge from the nested-loop reference on a hand-built
// table, and the lockstep oracle must report it. Against the clean engine
// both cases fail; vexec_test.cc's VexecMutationTest.CleanEnginePassesOracle
// is the clean half.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/reference_eval.h"
#include "tests/vexec_test_db.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

using vexec::VectorizedEngine;

// hash-collision: the sparse probe takes the first occupied slot without
// rechecking its key, and the dense direct-address mode is off.
TEST(VexecMutationTest, HashCollisionBugDiverges) {
  // Probe keys absent from the build side: correct joins produce zero
  // matches, but with key rechecks disabled any probe whose home slot is
  // occupied (7 of 16 slots here, across 64 distinct probe keys) accepts
  // the foreign entry — so the buggy engine must overcount.
  std::vector<int64_t> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(1000 + i);
  std::vector<int64_t> dims;
  for (int i = 0; i < 7; ++i) dims.push_back(i);
  Database db = BuildJoinDb(keys, dims);
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>();
  ast.select->tables = {fact, dim};
  SelectItem item;
  item.column = {fact, 0};
  ast.select->items.push_back(std::move(item));

  ReferenceEvaluator ref(&db);
  VectorizedEngine buggy(&db);
  auto a = ref.Cardinality(ast);
  auto b = buggy.Cardinality(ast);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b) << "planted hash-collision bug was not observable";

  // The lockstep oracle must catch the same plant.
  OracleOptions opts;
  opts.check_vexec = true;
  DifferentialOracle oracle(&db, opts);
  auto v = oracle.Check(ast);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->oracle, "vexec");
}

// sel-vector-off-by-one: the WHERE filter's batch loop drops the last
// tuple of every batch.
TEST(VexecMutationTest, SelVectorOffByOneBugDiverges) {
  Database db = BuildJoinDb(/*fact_keys=*/{1, 1, 1, 1}, /*dim_ids=*/{1});
  const int fact = db.catalog().FindTable("Fact");
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>(SelectAll(fact));
  ast.select->where.predicates.push_back(
      ValuePred(fact, 1, CompareOp::kEq, Value(int64_t{1})));

  ReferenceEvaluator ref(&db);
  VectorizedEngine buggy(&db);
  auto a = ref.Cardinality(ast);
  auto b = buggy.Cardinality(ast);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, 4u);
  EXPECT_EQ(*b, 3u);  // the batch's final tuple is dropped

  DifferentialOracle oracle(&db);
  auto v = oracle.Check(ast);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->oracle, "vexec");
}

}  // namespace
}  // namespace lsg
