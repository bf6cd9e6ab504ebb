// Tests for the features the paper lists as future work / extensions:
// LIKE patterns (§5), ORDER BY, and model persistence.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/generator.h"
#include "core/workload.h"
#include "exec/expression.h"
#include "fsm/generation_fsm.h"
#include "optimizer/cardinality_estimator.h"
#include "sql/render.h"
#include "tests/test_db.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

// ----------------------------------------------------------- LikeMatch

TEST(LikeMatchTest, Literals) {
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_FALSE(LikeMatch("abc", "abd"));
  EXPECT_FALSE(LikeMatch("abc", "ab"));
  EXPECT_FALSE(LikeMatch("ab", "abc"));
  EXPECT_TRUE(LikeMatch("", ""));
}

TEST(LikeMatchTest, PercentWildcard) {
  EXPECT_TRUE(LikeMatch("abcdef", "%cd%"));
  EXPECT_TRUE(LikeMatch("abcdef", "abc%"));
  EXPECT_TRUE(LikeMatch("abcdef", "%def"));
  EXPECT_TRUE(LikeMatch("abcdef", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("abcdef", "%xy%"));
  EXPECT_TRUE(LikeMatch("aaa", "%a%a%"));
}

TEST(LikeMatchTest, UnderscoreWildcard) {
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("ac", "a_c"));
  EXPECT_TRUE(LikeMatch("abc", "___"));
  EXPECT_FALSE(LikeMatch("abc", "____"));
  EXPECT_TRUE(LikeMatch("abc", "_%"));
}

TEST(LikeMatchTest, BacktrackingCases) {
  EXPECT_TRUE(LikeMatch("mississippi", "%iss%ppi"));
  EXPECT_TRUE(LikeMatch("mississippi", "m%ss%ppi"));
  EXPECT_FALSE(LikeMatch("mississippi", "%issipp%y"));
}

// ---------------------------------------------------------- vocabulary

TEST(LikeVocabularyTest, PatternsSampledForStringColumns) {
  Database db = BuildScoreStudentDb();
  VocabularyOptions vo;
  vo.values_per_column = 5;
  vo.patterns_per_string_column = 4;
  auto v = Vocabulary::Build(db, vo);
  ASSERT_TRUE(v.ok());
  int student = db.catalog().FindTable("Student");
  const auto& patterns = v->pattern_token_ids(student, 1);  // Name
  EXPECT_FALSE(patterns.empty());
  for (int id : patterns) {
    const Token& t = v->token(id);
    EXPECT_TRUE(t.is_pattern);
    const std::string& p = t.value.as_string();
    EXPECT_EQ(p.front(), '%');
    EXPECT_EQ(p.back(), '%');
    EXPECT_GT(p.size(), 2u);
  }
  // Numeric columns never get patterns.
  int score = db.catalog().FindTable("Score");
  EXPECT_TRUE(v->pattern_token_ids(score, 3).empty());
}

TEST(LikeVocabularyTest, DisabledByOption) {
  Database db = BuildScoreStudentDb();
  VocabularyOptions vo;
  vo.patterns_per_string_column = 0;
  auto v = Vocabulary::Build(db, vo);
  ASSERT_TRUE(v.ok());
  int student = db.catalog().FindTable("Student");
  EXPECT_TRUE(v->pattern_token_ids(student, 1).empty());
}

// ------------------------------------------------------------ executor

class LikeExecTest : public ::testing::Test {
 protected:
  LikeExecTest() : db_(BuildScoreStudentDb()), exec_(&db_) {}
  int student() { return db_.catalog().FindTable("Student"); }
  Database db_;
  vexec::VectorizedEngine exec_;
};

TEST_F(LikeExecTest, CountsMatchingRows) {
  // Names: Ada Bob Cat Dan Eve Fay Gus Hal Ivy Joe — exactly one contains
  // "da" (Ada), three end with a vowel... check a couple of patterns.
  SelectQuery q;
  q.tables = {student()};
  q.items.push_back({AggFunc::kNone, {student(), 0}});
  Predicate p;
  p.kind = PredicateKind::kLike;
  p.column = {student(), 1};
  p.value = Value("%da%");
  q.where.predicates.push_back(std::move(p));
  auto r = exec_.ExecuteSelect(q, false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cardinality, 1u);  // Ada
}

TEST_F(LikeExecTest, PrefixPattern) {
  SelectQuery q;
  q.tables = {student()};
  q.items.push_back({AggFunc::kNone, {student(), 0}});
  Predicate p;
  p.kind = PredicateKind::kLike;
  p.column = {student(), 1};
  p.value = Value("_a%");  // second letter 'a': Cat, Dan, Fay, Hal
  q.where.predicates.push_back(std::move(p));
  auto r = exec_.ExecuteSelect(q, false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cardinality, 4u);
}

// ----------------------------------------------------------- estimator

TEST(LikeEstimatorTest, SelectivityTracksMcvMatches) {
  Database db = BuildScoreStudentDb();
  DatabaseStats stats = DatabaseStats::Collect(db);
  CardinalityEstimator est(&db, &stats);
  int student = db.catalog().FindTable("Student");
  SelectQuery q;
  q.tables = {student};
  q.items.push_back({AggFunc::kNone, {student, 0}});
  Predicate p;
  p.kind = PredicateKind::kLike;
  p.column = {student, 1};
  p.value = Value("%a%");  // matches Ada,Cat,Dan,Fay,Hal = 5/10
  q.where.predicates.push_back(std::move(p));
  double estimate = est.EstimateSelect(q, nullptr);
  EXPECT_NEAR(estimate, 5.0, 1.5);

  // A pattern matching nothing should estimate near zero.
  q.where.predicates[0].value = Value("%zzz%");
  EXPECT_LT(est.EstimateSelect(q, nullptr), 1.5);
}

// ----------------------------------------------------------- FSM + walks

class ExtensionFsmTest : public ::testing::Test {
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
  Database db_;
  std::optional<Vocabulary> vocab_;
};

TEST_F(ExtensionFsmTest, LikeOfferedOnlyForStringColumnsWithPatterns) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->table_token_id(student())).ok());
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->column_token_id(student(), 0)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kWhere)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->column_token_id(student(), 1)).ok());  // Name
  const auto& mask = fsm.ValidActions().bytes;
  EXPECT_TRUE(mask[vocab_->keyword_id(Keyword::kLike)]);
  // After LIKE only this column's patterns are offered.
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kLike)).ok());
  const auto& m2 = fsm.ValidActions().bytes;
  int allowed = 0;
  for (size_t i = 0; i < m2.size(); ++i) {
    if (!m2[i]) continue;
    ++allowed;
    const Token& t = vocab_->token(static_cast<int>(i));
    EXPECT_TRUE(t.is_pattern);
    EXPECT_EQ(t.value_column_table, student());
    EXPECT_EQ(t.value_column_idx, 1);
  }
  EXPECT_GT(allowed, 0);
}

TEST_F(ExtensionFsmTest, LikeMaskedForNumericColumns) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->table_token_id(score())).ok());
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->column_token_id(score(), 0)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kWhere)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->column_token_id(score(), 3)).ok());  // Grade
  EXPECT_FALSE(fsm.ValidActions().bytes[vocab_->keyword_id(Keyword::kLike)]);
}

TEST_F(ExtensionFsmTest, OrderByFlow) {
  GenerationFsm fsm(&db_, &*vocab_, QueryProfile());
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->table_token_id(score())).ok());
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->column_token_id(score(), 1)).ok());
  EXPECT_TRUE(fsm.ValidActions().bytes[vocab_->keyword_id(Keyword::kOrderBy)]);
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kOrderBy)).ok());
  // Only the selected plain column is orderable.
  const auto& mask = fsm.ValidActions().bytes;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      EXPECT_EQ(vocab_->token(static_cast<int>(i)).column.column_idx, 1);
    }
  }
  ASSERT_TRUE(fsm.Step(vocab_->column_token_id(score(), 1)).ok());
  EXPECT_TRUE(fsm.IsExecutablePrefix());
  ASSERT_TRUE(fsm.Step(vocab_->eof_id()).ok());
  QueryAst ast = fsm.TakeAst();
  ASSERT_EQ(ast.select->order_by.size(), 1u);
  std::string sql = RenderSql(ast, db_.catalog());
  EXPECT_NE(sql.find("ORDER BY Score.ID"), std::string::npos) << sql;
}

TEST_F(ExtensionFsmTest, OrderByMaskedWhenDisabled) {
  QueryProfile profile;
  profile.allow_order_by = false;
  GenerationFsm fsm(&db_, &*vocab_, profile);
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->table_token_id(score())).ok());
  ASSERT_TRUE(fsm.Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  ASSERT_TRUE(fsm.Step(vocab_->column_token_id(score(), 1)).ok());
  EXPECT_FALSE(fsm.ValidActions().bytes[vocab_->keyword_id(Keyword::kOrderBy)]);
}

TEST_F(ExtensionFsmTest, WalksWithExtensionsExecute) {
  QueryProfile profile;
  profile.max_nesting_depth = 2;
  GenerationFsm fsm(&db_, &*vocab_, profile);
  vexec::VectorizedEngine exec(&db_);
  Rng rng(777);
  int like_seen = 0, order_seen = 0;
  for (int i = 0; i < 300; ++i) {
    auto ast = RandomWalkQuery(&fsm, &rng);
    ASSERT_TRUE(ast.ok());
    auto card = exec.Cardinality(*ast);
    ASSERT_TRUE(card.ok()) << RenderSql(*ast, db_.catalog());
    if (ast->type == QueryType::kSelect) {
      if (!ast->select->order_by.empty()) ++order_seen;
      for (const Predicate& p : ast->select->where.predicates) {
        if (p.kind == PredicateKind::kLike) ++like_seen;
      }
    }
  }
  // The random walk should actually exercise both extensions.
  EXPECT_GT(like_seen, 0);
  EXPECT_GT(order_seen, 0);
}

// ----------------------------------------------------------- cost model

TEST(OrderByCostTest, SortAddsCost) {
  Database db = BuildScoreStudentDb();
  DatabaseStats stats = DatabaseStats::Collect(db);
  CardinalityEstimator est(&db, &stats);
  CostModel cost(&est);
  int score = db.catalog().FindTable("Score");
  SelectQuery q;
  q.tables = {score};
  q.items.push_back({AggFunc::kNone, {score, 0}});
  double plain = cost.SelectCost(q);
  q.order_by.push_back({score, 0});
  EXPECT_GT(cost.SelectCost(q), plain);
}

// ------------------------------------------------------- model persist

TEST(ModelPersistenceTest, SaveLoadReproducesPolicy) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 20;
  opts.trainer.batch_size = 4;
  opts.vocab.values_per_column = 8;
  auto gen = LearnedSqlGen::Create(ScoreContext(opts), opts);
  ASSERT_TRUE(gen.ok());
  Constraint c = Constraint::Range(ConstraintMetric::kCardinality, 5, 60);
  ASSERT_TRUE((*gen)->Train(c).ok());
  std::string path =
      std::filesystem::temp_directory_path() / "lsg_model_test.bin";
  ASSERT_TRUE((*gen)->SaveModel(path).ok());

  // A fresh pipeline loads the model and generates without retraining.
  auto gen2 = LearnedSqlGen::Create(ScoreContext(opts), opts);
  ASSERT_TRUE(gen2.ok());
  ASSERT_TRUE((*gen2)->LoadModel(c, path).ok());
  std::remove(path.c_str());
  // Both the trained and the loaded model are served without gradients.
  auto params = [](const LearnedSqlGen& g) {
    std::vector<uint32_t> bits;
    for (const ParamTensor* t : g.snapshot()->actor->Params()) {
      EXPECT_EQ(t->grad().size(), 0u) << t->name;
      for (size_t i = 0; i < t->value().size(); ++i) {
        bits.push_back(std::bit_cast<uint32_t>(t->value().data()[i]));
      }
    }
    return bits;
  };
  EXPECT_EQ(params(**gen2), params(**gen));
  auto expect_same = [](const GenerationReport& got,
                        const GenerationReport& want) {
    EXPECT_EQ(got.attempts, want.attempts);
    EXPECT_EQ(got.satisfied, want.satisfied);
    ASSERT_EQ(got.queries.size(), want.queries.size());
    for (size_t q = 0; q < want.queries.size(); ++q) {
      EXPECT_EQ(got.queries[q].sql, want.queries[q].sql);
      EXPECT_EQ(std::bit_cast<uint64_t>(got.queries[q].metric),
                std::bit_cast<uint64_t>(want.queries[q].metric));
    }
  };

  // Equal caller streams sample bitwise the trained pipeline's queries.
  Rng trained_rng(77);
  Rng loaded_rng(77);
  auto want = (*gen)->GenerateBatch(10, &trained_rng);
  auto got = (*gen2)->GenerateBatch(10, &loaded_rng);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(got->attempts, 10);
  expect_same(*got, *want);

  // The loaded pipeline's internal stream starts at Rng(trainer.seed).
  auto internal = (*gen2)->GenerateBatch(10);
  Rng seed_rng(opts.trainer.seed);
  auto seeded = (*gen2)->GenerateBatch(10, &seed_rng);
  ASSERT_TRUE(internal.ok() && seeded.ok());
  expect_same(*internal, *seeded);
}

TEST(ModelPersistenceTest, SaveBeforeTrainFails) {
  Database db = BuildScoreStudentDb();
  auto gen = LearnedSqlGen::Create(&db, LearnedSqlGenOptions());
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ((*gen)->SaveModel("/tmp/never.bin").code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace lsg
