#include <gtest/gtest.h>

#include <set>

#include "core/workload.h"
#include "fsm/generation_fsm.h"
#include "fsm/semantic_rules.h"
#include "obs/obs.h"
#include "sql/render.h"
#include "tests/test_db.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

// ------------------------------------------------------ semantic rules

TEST(SemanticRulesTest, OperatorsByType) {
  for (int op = 0; op < static_cast<int>(CompareOp::kNumOps); ++op) {
    EXPECT_TRUE(OperatorAllowedForType(static_cast<CompareOp>(op),
                                       DataType::kInt64));
    EXPECT_TRUE(OperatorAllowedForType(static_cast<CompareOp>(op),
                                       DataType::kDouble));
  }
  // Strings support only {=, <, >} (paper §4.1).
  EXPECT_TRUE(OperatorAllowedForType(CompareOp::kEq, DataType::kString));
  EXPECT_TRUE(OperatorAllowedForType(CompareOp::kLt, DataType::kString));
  EXPECT_TRUE(OperatorAllowedForType(CompareOp::kGt, DataType::kString));
  EXPECT_FALSE(OperatorAllowedForType(CompareOp::kLe, DataType::kString));
  EXPECT_FALSE(OperatorAllowedForType(CompareOp::kGe, DataType::kCategorical));
  EXPECT_FALSE(OperatorAllowedForType(CompareOp::kNe, DataType::kString));
}

TEST(SemanticRulesTest, AggregatesByType) {
  EXPECT_TRUE(AggregateAllowedForType(AggFunc::kCount, DataType::kString));
  EXPECT_TRUE(AggregateAllowedForType(AggFunc::kSum, DataType::kInt64));
  EXPECT_FALSE(AggregateAllowedForType(AggFunc::kSum, DataType::kString));
  EXPECT_FALSE(AggregateAllowedForType(AggFunc::kAvg, DataType::kCategorical));
}

// ------------------------------------------------------ fixture

class FsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildScoreStudentDb();
    VocabularyOptions vo;
    vo.values_per_column = 8;
    auto v = Vocabulary::Build(db_, vo);
    ASSERT_TRUE(v.ok());
    vocab_ = std::move(v).value();
  }

  int score() { return db_.catalog().FindTable("Score"); }
  int student() { return db_.catalog().FindTable("Student"); }

  /// Steps the FSM with the unique valid keyword/table/... convenience.
  void StepKeyword(GenerationFsm* fsm, Keyword kw) {
    ASSERT_TRUE(fsm->Step(vocab_->keyword_id(kw)).ok()) << KeywordText(kw);
  }
  void StepTable(GenerationFsm* fsm, int idx) {
    ASSERT_TRUE(fsm->Step(vocab_->table_token_id(idx)).ok());
  }
  void StepColumn(GenerationFsm* fsm, int t, int c) {
    ASSERT_TRUE(fsm->Step(vocab_->column_token_id(t, c)).ok());
  }

  std::set<int> AllowedIds(GenerationFsm* fsm) {
    const auto& mask = fsm->ValidActions().bytes;
    std::set<int> ids;
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) ids.insert(static_cast<int>(i));
    }
    return ids;
  }

  Database db_;
  std::optional<Vocabulary> vocab_;
};

TEST_F(FsmTest, StartMaskMatchesProfile) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  auto ids = AllowedIds(&fsm);
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_TRUE(ids.count(vocab_->keyword_id(Keyword::kFrom)));

  GenerationFsm full(&db_, &*vocab_, QueryProfile::Full());
  ids = AllowedIds(&full);
  EXPECT_TRUE(ids.count(vocab_->keyword_id(Keyword::kFrom)));
  EXPECT_TRUE(ids.count(vocab_->keyword_id(Keyword::kInsert)));
  EXPECT_TRUE(ids.count(vocab_->keyword_id(Keyword::kUpdate)));
  EXPECT_TRUE(ids.count(vocab_->keyword_id(Keyword::kDelete)));

  GenerationFsm del(&db_, &*vocab_, QueryProfile::DeleteOnly());
  ids = AllowedIds(&del);
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_TRUE(ids.count(vocab_->keyword_id(Keyword::kDelete)));
}

TEST_F(FsmTest, FromMaskOffersAllTables) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  StepKeyword(&fsm, Keyword::kFrom);
  auto ids = AllowedIds(&fsm);
  EXPECT_TRUE(ids.count(vocab_->table_token_id(score())));
  EXPECT_TRUE(ids.count(vocab_->table_token_id(student())));
  EXPECT_EQ(ids.size(), 2u);
}

TEST_F(FsmTest, JoinMaskedWhenNoJoinableTableRemains) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  StepKeyword(&fsm, Keyword::kFrom);
  StepTable(&fsm, score());
  auto ids = AllowedIds(&fsm);
  EXPECT_TRUE(ids.count(vocab_->keyword_id(Keyword::kJoin)));
  StepKeyword(&fsm, Keyword::kJoin);
  StepTable(&fsm, student());
  // Both tables joined: no third table exists.
  ids = AllowedIds(&fsm);
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kJoin)));
  EXPECT_TRUE(ids.count(vocab_->keyword_id(Keyword::kSelect)));
}

TEST_F(FsmTest, StringColumnOperatorsRestricted) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  StepKeyword(&fsm, Keyword::kFrom);
  StepTable(&fsm, score());
  StepKeyword(&fsm, Keyword::kSelect);
  StepColumn(&fsm, score(), 0);
  StepKeyword(&fsm, Keyword::kWhere);
  StepColumn(&fsm, score(), 2);  // Course: categorical
  auto ids = AllowedIds(&fsm);
  EXPECT_TRUE(ids.count(vocab_->operator_id(CompareOp::kEq)));
  EXPECT_TRUE(ids.count(vocab_->operator_id(CompareOp::kLt)));
  EXPECT_TRUE(ids.count(vocab_->operator_id(CompareOp::kGt)));
  EXPECT_FALSE(ids.count(vocab_->operator_id(CompareOp::kLe)));
  EXPECT_FALSE(ids.count(vocab_->operator_id(CompareOp::kGe)));
  EXPECT_FALSE(ids.count(vocab_->operator_id(CompareOp::kNe)));
}

TEST_F(FsmTest, ValueMaskScopedToPredicateColumn) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  StepKeyword(&fsm, Keyword::kFrom);
  StepTable(&fsm, score());
  StepKeyword(&fsm, Keyword::kSelect);
  StepColumn(&fsm, score(), 0);
  StepKeyword(&fsm, Keyword::kWhere);
  StepColumn(&fsm, score(), 3);  // Grade
  ASSERT_TRUE(fsm.Step(vocab_->operator_id(CompareOp::kLt)).ok());
  auto ids = AllowedIds(&fsm);
  // All offered values (besides the scalar-subquery paren) belong to Grade.
  for (int id : ids) {
    const Token& t = vocab_->token(id);
    if (t.kind == TokenKind::kValue) {
      EXPECT_EQ(t.value_column_table, score());
      EXPECT_EQ(t.value_column_idx, 3);
    } else {
      EXPECT_EQ(t.keyword, Keyword::kOpenParen);
    }
  }
}

TEST_F(FsmTest, ScalarSubqueryOnlyForNumericLhs) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  StepKeyword(&fsm, Keyword::kFrom);
  StepTable(&fsm, score());
  StepKeyword(&fsm, Keyword::kSelect);
  StepColumn(&fsm, score(), 0);
  StepKeyword(&fsm, Keyword::kWhere);
  StepColumn(&fsm, score(), 2);  // Course: categorical lhs
  ASSERT_TRUE(fsm.Step(vocab_->operator_id(CompareOp::kEq)).ok());
  auto ids = AllowedIds(&fsm);
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kOpenParen)));
}

TEST_F(FsmTest, NestingDepthLimitMasksSubqueries) {
  QueryProfile profile;
  profile.max_nesting_depth = 0;
  GenerationFsm fsm(&db_, &*vocab_, profile);
  StepKeyword(&fsm, Keyword::kFrom);
  StepTable(&fsm, score());
  StepKeyword(&fsm, Keyword::kSelect);
  StepColumn(&fsm, score(), 0);
  StepKeyword(&fsm, Keyword::kWhere);
  auto ids = AllowedIds(&fsm);
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kExists)));
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kNot)));
  StepColumn(&fsm, score(), 3);
  ids = AllowedIds(&fsm);
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kIn)));
}

TEST_F(FsmTest, MixedItemsForceGroupBy) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  StepKeyword(&fsm, Keyword::kFrom);
  StepTable(&fsm, score());
  StepKeyword(&fsm, Keyword::kSelect);
  StepColumn(&fsm, score(), 2);          // plain Course
  StepKeyword(&fsm, Keyword::kMax);      // + MAX(Grade): now mixed
  StepColumn(&fsm, score(), 3);
  auto ids = AllowedIds(&fsm);
  EXPECT_FALSE(ids.count(vocab_->eof_id()));
  EXPECT_TRUE(ids.count(vocab_->keyword_id(Keyword::kGroupBy)));
  StepKeyword(&fsm, Keyword::kGroupBy);
  StepColumn(&fsm, score(), 2);
  ids = AllowedIds(&fsm);
  EXPECT_TRUE(ids.count(vocab_->eof_id()));
}

TEST_F(FsmTest, GroupByMaskedWithoutAggregateBranch) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile::SpjOnly());
  StepKeyword(&fsm, Keyword::kFrom);
  StepTable(&fsm, score());
  StepKeyword(&fsm, Keyword::kSelect);
  StepColumn(&fsm, score(), 2);
  auto ids = AllowedIds(&fsm);
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kGroupBy)));
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kMax)));
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kCount)));
  EXPECT_TRUE(ids.count(vocab_->eof_id()));
}

TEST_F(FsmTest, MaxPredicatesLimitsConnectors) {
  QueryProfile profile;
  profile.max_predicates = 1;
  GenerationFsm fsm(&db_, &*vocab_, profile);
  StepKeyword(&fsm, Keyword::kFrom);
  StepTable(&fsm, score());
  StepKeyword(&fsm, Keyword::kSelect);
  StepColumn(&fsm, score(), 0);
  StepKeyword(&fsm, Keyword::kWhere);
  StepColumn(&fsm, score(), 3);
  ASSERT_TRUE(fsm.Step(vocab_->operator_id(CompareOp::kLt)).ok());
  auto values = vocab_->value_token_ids(score(), 3);
  ASSERT_TRUE(fsm.Step(values[0]).ok());
  auto ids = AllowedIds(&fsm);
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kAnd)));
  EXPECT_FALSE(ids.count(vocab_->keyword_id(Keyword::kOr)));
  EXPECT_TRUE(ids.count(vocab_->eof_id()));
}

TEST_F(FsmTest, UpdateCannotSetPrimaryKey) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile::UpdateOnly());
  StepKeyword(&fsm, Keyword::kUpdate);
  StepTable(&fsm, score());
  StepKeyword(&fsm, Keyword::kSet);
  auto ids = AllowedIds(&fsm);
  EXPECT_FALSE(ids.count(vocab_->column_token_id(score(), 0)));  // PK SID
  EXPECT_TRUE(ids.count(vocab_->column_token_id(score(), 3)));
}

TEST_F(FsmTest, InsertValuesFollowColumnOrder) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile::InsertOnly());
  StepKeyword(&fsm, Keyword::kInsert);
  StepTable(&fsm, student());
  StepKeyword(&fsm, Keyword::kValues);
  for (int c = 0; c < 3; ++c) {
    auto ids = AllowedIds(&fsm);
    for (int id : ids) {
      EXPECT_EQ(vocab_->token(id).value_column_idx, c);
    }
    ASSERT_TRUE(fsm.Step(*ids.begin()).ok());
  }
  auto ids = AllowedIds(&fsm);
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_TRUE(ids.count(vocab_->eof_id()));
}

// UniformAction walks the admitted-id list; the byte sweep it replaced
// walked the whole mask. Over random masks (empty, single, sparse, dense
// and full) both must return the same id and leave the Rng in the same
// state.
TEST(UniformActionTest, MatchesByteSweepAndRngState) {
  Rng shape(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const int width = 1 + static_cast<int>(shape.Uniform(300));
    const double density = trial % 5 == 0 ? 0.0
                           : trial % 5 == 1 ? 1.0
                                            : shape.UniformDouble();
    ActionMask mask;
    mask.bytes.assign(width, 0);
    for (int i = 0; i < width; ++i) {
      if (shape.UniformDouble() < density) {
        mask.bytes[i] = 1;
        mask.ids.push_back(i);
      }
    }
    const uint64_t seed = shape.Next();
    Rng sweep_rng(seed), pick_rng(seed);
    int chosen = -1, seen = 0;
    for (int i = 0; i < width; ++i) {
      if (!mask.bytes[i]) continue;
      ++seen;
      if (sweep_rng.Uniform(seen) == 0) chosen = i;
    }
    auto picked = UniformAction(mask, &pick_rng);
    if (chosen < 0) {
      EXPECT_EQ(picked.status().code(), StatusCode::kInternal);
    } else {
      ASSERT_TRUE(picked.ok());
      EXPECT_EQ(*picked, chosen) << "trial " << trial;
    }
    EXPECT_EQ(pick_rng.Next(), sweep_rng.Next()) << "trial " << trial;
  }
}

TEST_F(FsmTest, TokenBudgetForcesShortQueries) {
  QueryProfile profile;
  profile.max_tokens = 6;
  GenerationFsm fsm(&db_, &*vocab_, profile);
  Rng rng(3);
  for (int episode = 0; episode < 100; ++episode) {
    fsm.Reset();
    int steps = 0;
    while (!fsm.done()) {
      const auto& mask = fsm.ValidActions().bytes;
      int chosen = -1, seen = 0;
      for (size_t i = 0; i < mask.size(); ++i) {
        if (!mask[i]) continue;
        ++seen;
        if (rng.Uniform(seen) == 0) chosen = static_cast<int>(i);
      }
      ASSERT_GE(chosen, 0);
      ASSERT_TRUE(fsm.Step(chosen).ok());
      ++steps;
      ASSERT_LT(steps, 64);
    }
    // Budget is soft: once exceeded only the completion path remains, so at
    // most a bounded number of closing tokens follow (predicate completion
    // plus EOF).
    EXPECT_LE(steps, profile.max_tokens + 6);
    (void)fsm.TakeAst();
  }
}

TEST_F(FsmTest, ResetClearsLastMaskWidth) {
  // Regression: last_mask_width_ survived Reset(), so an episode that
  // terminated on its very first token reported the previous episode's
  // final mask width to the telemetry sink.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  (void)fsm.ValidActions();
  EXPECT_GT(fsm.last_mask_width(), 0);
  fsm.Reset();
  EXPECT_EQ(fsm.last_mask_width(), 0);
  obs::SetEnabled(was_enabled);
}

// ---------------------------------------------------- property walks

struct WalkCase {
  const char* name;
  QueryProfile profile;
};

class FsmWalkProperty : public FsmTest,
                        public ::testing::WithParamInterface<int> {};

QueryProfile CaseProfile(int idx) {
  switch (idx) {
    case 0:
      return QueryProfile();
    case 1:
      return QueryProfile::SpjOnly();
    case 2:
      return QueryProfile::Full();
    case 3:
      return QueryProfile::InsertOnly();
    case 4:
      return QueryProfile::UpdateOnly();
    case 5:
      return QueryProfile::DeleteOnly();
    case 6: {
      QueryProfile p;
      p.max_nesting_depth = 2;
      p.max_joins = 1;
      return p;
    }
    case 7: {
      QueryProfile p;
      p.max_tokens = 10;
      return p;
    }
    default: {
      QueryProfile p;
      p.allow_group_by = false;
      return p;
    }
  }
}

TEST_P(FsmWalkProperty, WalksTerminateAndExecute) {
  QueryProfile profile = CaseProfile(GetParam());
  GenerationFsm fsm(&db_, &*vocab_, profile);
  vexec::VectorizedEngine exec(&db_);
  Rng rng(1000 + GetParam());
  for (int i = 0; i < 150; ++i) {
    auto ast = RandomWalkQuery(&fsm, &rng);
    ASSERT_TRUE(ast.ok()) << ast.status().ToString();
    // Every generated query renders to SQL and executes without error —
    // the paper's validity guarantee (§5).
    std::string sql = RenderSql(*ast, db_.catalog());
    EXPECT_FALSE(sql.empty());
    auto card = exec.Cardinality(*ast);
    ASSERT_TRUE(card.ok()) << sql << " -> " << card.status().ToString();
    // Structural limits hold.
    if (ast->type == QueryType::kSelect) {
      EXPECT_LE(ast->select->NumJoins(), profile.max_joins);
      EXPECT_LE(static_cast<int>(ast->select->where.predicates.size()),
                profile.max_predicates);
      EXPECT_LE(static_cast<int>(ast->select->items.size()),
                profile.max_select_items);
      EXPECT_LE(ast->select->NestingDepth(), profile.max_nesting_depth);
      if (!profile.allow_nested && !profile.allow_exists) {
        EXPECT_FALSE(ast->select->HasNested());
      }
    }
    if (!profile.allow_select) {
      EXPECT_NE(ast->type, QueryType::kSelect);
    }
    if (!profile.allow_insert) {
      EXPECT_NE(ast->type, QueryType::kInsert);
    }
    if (!profile.allow_update) {
      EXPECT_NE(ast->type, QueryType::kUpdate);
    }
    if (!profile.allow_delete) {
      EXPECT_NE(ast->type, QueryType::kDelete);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, FsmWalkProperty, ::testing::Range(0, 9));

}  // namespace
}  // namespace lsg
