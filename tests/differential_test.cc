// Differential testing of the execution engine: the naive reference
// evaluator (row-at-a-time nested loops, no hashing — see
// fuzz/reference_eval.h, where it lives so the fuzzer and tests share one
// copy) must produce the same cardinality as the vectorized engine for
// every FSM-generated query on the hand-built Score/Student database.
#include <gtest/gtest.h>

#include "core/workload.h"
#include "fsm/generation_fsm.h"
#include "fuzz/reference_eval.h"
#include "sql/render.h"
#include "tests/test_db.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, VectorizedEngineMatchesReference) {
  Database db = BuildScoreStudentDb();
  VocabularyOptions vo;
  vo.values_per_column = 8;
  auto vocab = Vocabulary::Build(db, vo);
  ASSERT_TRUE(vocab.ok());
  QueryProfile profile;
  switch (GetParam()) {
    case 0:
      break;
    case 1:
      profile = QueryProfile::Full();
      break;
    case 2:
      profile.max_nesting_depth = 2;
      break;
    default:
      profile.max_predicates = 6;
      profile.max_select_items = 4;
      break;
  }
  GenerationFsm fsm(&db, &*vocab, profile);
  vexec::VectorizedEngine exec(&db);
  ReferenceEvaluator ref(&db);
  Rng rng(9000 + GetParam());
  for (int i = 0; i < 200; ++i) {
    auto ast = RandomWalkQuery(&fsm, &rng);
    ASSERT_TRUE(ast.ok());
    auto fast = exec.Cardinality(*ast);
    ASSERT_TRUE(fast.ok()) << RenderSql(*ast, db.catalog());
    auto slow = ref.Cardinality(*ast);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString() << " "
                           << RenderSql(*ast, db.catalog());
    EXPECT_EQ(*fast, *slow) << RenderSql(*ast, db.catalog());
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, DifferentialTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace lsg
