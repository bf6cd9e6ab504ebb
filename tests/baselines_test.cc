#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/random_generator.h"
#include "baselines/template_generator.h"
#include "sql/render.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildScoreStudentDb();
    stats_ = DatabaseStats::Collect(db_);
    est_ = std::make_unique<CardinalityEstimator>(&db_, &stats_);
    cost_ = std::make_unique<CostModel>(est_.get());
    VocabularyOptions vo;
    vo.values_per_column = 8;
    auto v = Vocabulary::Build(db_, vo);
    ASSERT_TRUE(v.ok());
    vocab_ = std::move(v).value();
  }

  std::unique_ptr<SqlGenEnvironment> MakeEnv(Constraint c) {
    EnvironmentOptions eo;
    return std::make_unique<SqlGenEnvironment>(&db_, &*vocab_, est_.get(),
                                               cost_.get(), c, eo);
  }

  Database db_;
  DatabaseStats stats_;
  std::unique_ptr<CardinalityEstimator> est_;
  std::unique_ptr<CostModel> cost_;
  std::optional<Vocabulary> vocab_;
};

// --------------------------------------------------------------- random

TEST_F(BaselinesTest, RandomRolloutCompletes) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 50));
  RandomGenerator gen(env.get(), 1);
  for (int i = 0; i < 50; ++i) {
    auto t = gen.Rollout();
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_TRUE(t->completed);
    EXPECT_FALSE(t->actions.empty());
  }
}

TEST_F(BaselinesTest, RandomBatchAccuracyInUnitRange) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 100));
  RandomGenerator gen(env.get(), 2);
  auto rep = gen.GenerateBatch(100);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->attempts, 100);
  EXPECT_GE(rep->accuracy, 0.0);
  EXPECT_LE(rep->accuracy, 1.0);
  // Wide constraint on a 30-row database: random hits it regularly.
  EXPECT_GT(rep->accuracy, 0.1);
}

TEST_F(BaselinesTest, RandomGenerateSatisfiedRespectsAttemptCap) {
  // Impossible constraint: cardinality beyond the largest join result.
  auto env =
      MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1e9, 2e9));
  RandomGenerator gen(env.get(), 3);
  auto rep = gen.GenerateSatisfied(5, /*max_attempts=*/200);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->satisfied, 0);
  EXPECT_EQ(rep->attempts, 200);
}

TEST_F(BaselinesTest, RandomGenerateSatisfiedFindsEasyTargets) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 100));
  RandomGenerator gen(env.get(), 4);
  auto rep = gen.GenerateSatisfied(5, 2000);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->satisfied, 5);
  for (const GeneratedQuery& q : rep->queries) {
    EXPECT_TRUE(q.satisfied);
    EXPECT_FALSE(q.sql.empty());
  }
}

TEST_F(BaselinesTest, RandomIsDeterministicPerSeed) {
  auto env1 = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 50));
  auto env2 = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 50));
  RandomGenerator a(env1.get(), 42), b(env2.get(), 42);
  for (int i = 0; i < 10; ++i) {
    auto ta = a.Rollout();
    auto tb = b.Rollout();
    ASSERT_TRUE(ta.ok() && tb.ok());
    EXPECT_EQ(ta->actions, tb->actions);
  }
}

// Fixed-seed pins: the SQL and accuracy of each random-baseline mode,
// recorded before the walk moved onto the shared episode loop and the
// pick onto the admitted-id list. Every draw must stay where it was.
TEST_F(BaselinesTest, RandomFixedSeedOutputsUnchanged) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 20));
  const Catalog& catalog = db_.catalog();
  RandomGenerator gen(env.get(), 2027);
  auto batch = gen.GenerateBatch(40);
  ASSERT_TRUE(batch.ok());
  auto next = gen.Rollout();
  ASSERT_TRUE(next.ok());
  auto sat = gen.GenerateSatisfied(3, /*max_attempts=*/200);
  ASSERT_TRUE(sat.ok());
  EXPECT_EQ(batch->attempts, 40);
  EXPECT_EQ(batch->satisfied, 27);
  EXPECT_EQ(batch->accuracy, 0.675);
  EXPECT_EQ(RenderSql(next->ast, catalog),
            "SELECT COUNT(Score.Course), Score.Grade FROM Score JOIN Student "
            "ON Score.ID = Student.ID WHERE Student.Gender LIKE '%M%' GROUP "
            "BY Score.Grade ORDER BY Score.Grade");
  EXPECT_EQ(sat->attempts, 6);
  EXPECT_EQ(sat->accuracy, 0.5);
  std::vector<std::string> sql;
  for (const GeneratedQuery& q : sat->queries) sql.push_back(q.sql);
  EXPECT_EQ(
      sql,
      (std::vector<std::string>{
          "SELECT Student.Gender, MIN(Score.Grade), MAX(Student.ID) FROM "
          "Score JOIN Student ON Score.ID = Student.ID GROUP BY "
          "Student.Gender",
          "SELECT MAX(Student.ID), Student.Gender FROM Student WHERE EXISTS "
          "(SELECT Score.ID FROM Score JOIN Student ON Score.ID = "
          "Student.ID) AND EXISTS (SELECT Student.Gender FROM Student WHERE "
          "Student.ID >= 4 OR Student.Name > 'Bob' OR Student.Name > 'Ada' "
          "AND Student.ID <> 0) GROUP BY Student.Gender",
          "SELECT SUM(Student.ID) FROM Student JOIN Score ON Score.ID = "
          "Student.ID WHERE Student.Gender > 'F' AND Score.Course IN "
          "(SELECT Score.Course FROM Student JOIN Score ON Score.ID = "
          "Student.ID WHERE Score.SID >= 26) AND EXISTS (SELECT Score.ID "
          "FROM Student JOIN Score ON Score.ID = Student.ID WHERE "
          "Student.Name = 'Ada' OR Student.Gender LIKE '%M%' AND Score.ID "
          ">= 9 OR Score.SID <= 19) OR Student.Name < 'Gus'"}));
}

// -------------------------------------------------------------- template

TEST_F(BaselinesTest, TemplatePoolMined) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 5, 25));
  TemplateGeneratorOptions topts;
  topts.num_templates = 10;
  TemplateGenerator gen(env.get(), topts);
  EXPECT_GT(gen.pool_size(), 0);
  EXPECT_LE(gen.pool_size(), 10);
}

TEST_F(BaselinesTest, TemplateClimbsTowardEasyRange) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 50));
  TemplateGeneratorOptions topts;
  topts.num_templates = 12;
  TemplateGenerator gen(env.get(), topts);
  auto rep = gen.GenerateSatisfied(3, /*max_attempts=*/20000);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->satisfied, 3);
  for (const GeneratedQuery& q : rep->queries) {
    EXPECT_GE(q.metric, 1.0);
    EXPECT_LE(q.metric, 50.0);
  }
}

TEST_F(BaselinesTest, TemplateBatchReportsAccuracy) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 60));
  TemplateGeneratorOptions topts;
  topts.num_templates = 12;
  TemplateGenerator gen(env.get(), topts);
  auto rep = gen.GenerateBatch(30);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->attempts, 30);
  EXPECT_GE(rep->accuracy, 0.0);
  EXPECT_LE(rep->accuracy, 1.0);
}

TEST_F(BaselinesTest, TemplateCannotReachImpossibleTarget) {
  // The paper's Customer < x anecdote: no predicate tweak reaches a
  // cardinality above the join space (§7.2.2).
  auto env =
      MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1e9, 2e9));
  TemplateGeneratorOptions topts;
  topts.num_templates = 8;
  TemplateGenerator gen(env.get(), topts);
  auto rep = gen.GenerateSatisfied(1, /*max_attempts=*/3000);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->satisfied, 0);
}

// Fixed-seed pin of the mined pool: its size and what the climbs reach
// from it (which template each attempt draws, and its knobs, follow from
// the mining walks' draws).
TEST_F(BaselinesTest, TemplateFixedSeedPoolUnchanged) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 20));
  TemplateGeneratorOptions topts;
  topts.num_templates = 10;
  topts.seed = 2027;
  TemplateGenerator gen(env.get(), topts);
  auto sat = gen.GenerateSatisfied(6, /*max_attempts=*/5000);
  ASSERT_TRUE(sat.ok());
  auto batch = gen.GenerateBatch(20);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(gen.pool_size(), 10);
  EXPECT_EQ(sat->attempts, 11);
  EXPECT_EQ(sat->satisfied, 6);
  std::vector<std::string> sql;
  for (const GeneratedQuery& q : sat->queries) sql.push_back(q.sql);
  EXPECT_EQ(
      sql,
      (std::vector<std::string>{
          "SELECT AVG(Student.ID) FROM Student WHERE Student.Name > 'Bob' "
          "AND EXISTS (SELECT Student.Name FROM Student) OR Student.ID IN "
          "(SELECT Score.ID FROM Score JOIN Student ON Score.ID = "
          "Student.ID) AND Student.Name < 'Bob'",
          "SELECT AVG(Score.SID) FROM Student JOIN Score ON Score.ID = "
          "Student.ID WHERE Student.ID > 4 AND Score.ID > 8",
          "SELECT AVG(Student.ID) FROM Student WHERE Student.Name > 'Ada' "
          "AND EXISTS (SELECT Student.Name FROM Student) OR Student.ID IN "
          "(SELECT Score.ID FROM Score JOIN Student ON Score.ID = "
          "Student.ID) AND Student.Name < 'Ivy'",
          "SELECT SUM(Score.ID), COUNT(Score.SID), AVG(Score.Grade) FROM "
          "Score WHERE Score.Course LIKE '%db%' OR Score.ID <= 2",
          "SELECT SUM(Score.ID), COUNT(Score.SID), AVG(Score.Grade) FROM "
          "Score WHERE Score.Course LIKE '%db%' OR Score.ID <= 7",
          "SELECT Score.SID, MAX(Score.Grade), SUM(Score.SID) FROM Score "
          "WHERE Score.SID < 15 GROUP BY Score.SID"}));
  EXPECT_EQ(batch->attempts, 20);
  EXPECT_EQ(batch->satisfied, 14);
}

}  // namespace
}  // namespace lsg
