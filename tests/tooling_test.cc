// Tests for the tooling surface: EXPLAIN rendering, workload report
// export (CSV/JSON), and the benchmark-provided seed templates.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/template_generator.h"
#include "core/report_io.h"
#include "datasets/benchmark_templates.h"
#include "datasets/job_like.h"
#include "datasets/tpch_like.h"
#include "datasets/xuetang_like.h"
#include "obs/json.h"
#include "optimizer/explain.h"
#include "sql/parser.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------- explain

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest()
      : db_(BuildScoreStudentDb()),
        stats_(DatabaseStats::Collect(db_)),
        est_(&db_, &stats_),
        cost_(&est_) {}
  Database db_;
  DatabaseStats stats_;
  CardinalityEstimator est_;
  CostModel cost_;
};

TEST_F(ExplainTest, SelectPlanShowsStages) {
  auto ast = ParseSql(
      "SELECT Student.Name FROM Score JOIN Student ON Score.ID = Student.ID "
      "WHERE Score.Grade < 80 GROUP BY Student.Name",
      db_.catalog());
  ASSERT_TRUE(ast.ok());
  std::string plan = Explain(*ast, db_.catalog(), est_, cost_);
  EXPECT_NE(plan.find("Select  (est rows="), std::string::npos) << plan;
  EXPECT_NE(plan.find("Scan Score"), std::string::npos);
  EXPECT_NE(plan.find("HashJoin Student"), std::string::npos);
  EXPECT_NE(plan.find("Filter: 1 predicate(s)"), std::string::npos);
  EXPECT_NE(plan.find("GroupBy: 1 column(s)"), std::string::npos);
}

TEST_F(ExplainTest, SubqueryPlansNest) {
  auto ast = ParseSql(
      "SELECT Score.ID FROM Score WHERE Score.ID IN "
      "(SELECT Student.ID FROM Student)",
      db_.catalog());
  ASSERT_TRUE(ast.ok());
  std::string plan = Explain(*ast, db_.catalog(), est_, cost_);
  EXPECT_NE(plan.find("Subquery:"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Scan Student"), std::string::npos);
}

TEST_F(ExplainTest, DmlPlans) {
  auto del = ParseSql("DELETE FROM Score WHERE Score.Grade < 65",
                      db_.catalog());
  ASSERT_TRUE(del.ok());
  std::string plan = Explain(*del, db_.catalog(), est_, cost_);
  EXPECT_NE(plan.find("Delete from Score"), std::string::npos) << plan;
  EXPECT_NE(plan.find("est cost="), std::string::npos);
}

// --------------------------------------------------------------- report IO

GenerationReport MakeReport() {
  GenerationReport report;
  report.attempts = 2;
  report.satisfied = 1;
  report.accuracy = 0.5;
  GeneratedQuery a;
  a.sql = "SELECT Score.ID FROM Score WHERE Score.Course = 'db'";
  a.metric = 10;
  a.satisfied = true;
  a.features.num_tables = 1;
  a.features.num_predicates = 1;
  a.features.num_tokens = 9;
  GeneratedQuery b;
  b.sql = "SELECT \"quoted\" FROM x";  // exercises escaping
  b.metric = 3.5;
  report.queries.push_back(std::move(a));
  report.queries.push_back(std::move(b));
  return report;
}

TEST(ReportIoTest, CsvRoundTripFields) {
  std::string path =
      std::filesystem::temp_directory_path() / "lsg_report_test.csv";
  ASSERT_TRUE(WriteReportCsv(MakeReport(), path).ok());
  std::string content = ReadFile(path);
  EXPECT_NE(content.find("sql,metric,satisfied"), std::string::npos);
  EXPECT_NE(content.find("'db'"), std::string::npos);
  // Internal quotes doubled per RFC 4180.
  EXPECT_NE(content.find("\"\"quoted\"\""), std::string::npos) << content;
  EXPECT_NE(content.find(",10.0000,1,SELECT,1,0,0,1,9"), std::string::npos)
      << content;
  std::remove(path.c_str());
}

TEST(ReportIoTest, JsonWellFormedEnough) {
  std::string path =
      std::filesystem::temp_directory_path() / "lsg_report_test.json";
  ASSERT_TRUE(WriteReportJson(MakeReport(), path).ok());
  std::string content = ReadFile(path);
  EXPECT_NE(content.find("\"accuracy\": 0.5"), std::string::npos);
  EXPECT_NE(content.find("\\\"quoted\\\""), std::string::npos) << content;
  // Balanced braces/brackets (coarse well-formedness check).
  EXPECT_EQ(std::count(content.begin(), content.end(), '{'),
            std::count(content.begin(), content.end(), '}'));
  EXPECT_EQ(std::count(content.begin(), content.end(), '['),
            std::count(content.begin(), content.end(), ']'));
  std::remove(path.c_str());
}

// The report writer escapes through the one shared escaper.
TEST(ReportIoTest, JsonEscapeCoversControls) {
  EXPECT_EQ(obs::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::JsonEscape("a\r\tb"), "a\\r\\tb");
  EXPECT_EQ(obs::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ReportIoTest, UnwritablePathFails) {
  EXPECT_FALSE(WriteReportCsv(MakeReport(), "/nonexistent/dir/x.csv").ok());
  EXPECT_FALSE(WriteReportJson(MakeReport(), "/nonexistent/dir/x.json").ok());
}

// --------------------------------------------------------- seed templates

class SeedTemplates : public ::testing::TestWithParam<int> {};

TEST_P(SeedTemplates, AllParseAndEstimate) {
  std::string name;
  Database db;
  switch (GetParam()) {
    case 0:
      name = "TPC-H";
      db = BuildTpchLike();
      break;
    case 1:
      name = "JOB";
      db = BuildJobLike();
      break;
    default:
      name = "XueTang";
      db = BuildXuetangLike();
      break;
  }
  DatabaseStats stats = DatabaseStats::Collect(db);
  CardinalityEstimator est(&db, &stats);
  auto templates = TemplatesForDataset(name);
  EXPECT_EQ(templates.size(), 8u);
  for (const std::string& sql : templates) {
    auto ast = ParseSql(sql, db.catalog());
    ASSERT_TRUE(ast.ok()) << sql << " -> " << ast.status().ToString();
    double e = est.EstimateCardinality(*ast);
    EXPECT_TRUE(std::isfinite(e)) << sql;
    EXPECT_GE(e, 0.0) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, SeedTemplates, ::testing::Range(0, 3));

TEST(SeedTemplates, UnknownDatasetEmpty) {
  EXPECT_TRUE(TemplatesForDataset("nope").empty());
}

TEST(SeedTemplates, TemplateGeneratorUsesSeeds) {
  Database db = BuildTpchLike();
  DatabaseStats stats = DatabaseStats::Collect(db);
  CardinalityEstimator est(&db, &stats);
  CostModel cost(&est);
  VocabularyOptions vo;
  auto vocab = Vocabulary::Build(db, vo);
  ASSERT_TRUE(vocab.ok());
  EnvironmentOptions eo;
  SqlGenEnvironment env(&db, &*vocab, &est, &cost,
                        Constraint::Range(ConstraintMetric::kCardinality, 10,
                                          500),
                        eo);
  TemplateGeneratorOptions topts;
  topts.seed_templates = TpchLikeTemplates();
  topts.num_templates = 8;  // pool should be all seeds
  TemplateGenerator gen(&env, topts);
  EXPECT_GE(gen.pool_size(), 6);  // most seeds carry tweakable literals
  auto rep = gen.GenerateSatisfied(3, 30000);
  ASSERT_TRUE(rep.ok());
  EXPECT_GE(rep->satisfied, 1);
}

// ------------------------------------------------------------ lsggen CLI

// The SQL of every query in an lsggen --json report, in order.
std::vector<std::string> JsonReportSql(const std::string& path) {
  std::vector<std::string> sql;
  auto report = obs::JsonParse(ReadFile(path));
  if (!report.ok()) return sql;
  const obs::JsonValue* queries = report->Find("queries");
  if (queries == nullptr || !queries->is_array()) return sql;
  for (const obs::JsonValue& q : queries->array) {
    sql.push_back(q.StringOr("sql", ""));
  }
  return sql;
}

// Runs the lsggen binary on TPC-H card [10, 1000] at `seed` and returns
// the SQL of its --json report.
std::vector<std::string> LsggenQueries(uint64_t seed) {
  const std::string json =
      (std::filesystem::temp_directory_path() /
       ("lsggen_seed_" + std::to_string(seed) + ".json"))
          .string();
  std::remove(json.c_str());
  const std::string cmd =
      std::string(LSG_LSGGEN_PATH) +
      " --dataset tpch --metric card --range 10,1000 --n 5 --epochs 5"
      " --batch 4 --seed " +
      std::to_string(seed) + " --json " + json + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::vector<std::string> sql = JsonReportSql(json);
  std::remove(json.c_str());
  return sql;
}

// --seed reaches training and sampling: two seeds write different
// workloads, and one seed writes the same workload twice.
TEST(LsggenCliTest, SeedChangesTheWorkload) {
  const std::vector<std::string> one = LsggenQueries(1);
  const std::vector<std::string> two = LsggenQueries(2);
  ASSERT_FALSE(one.empty());
  ASSERT_FALSE(two.empty());
  EXPECT_NE(one, two);
  EXPECT_EQ(LsggenQueries(1), one);
}

}  // namespace
}  // namespace lsg
