#include <gtest/gtest.h>

#include "core/workload.h"
#include "datasets/tpch_like.h"
#include "fsm/generation_fsm.h"
#include "sql/parser.h"
#include "sql/render.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : db_(BuildScoreStudentDb()) {}
  const Catalog& cat() { return db_.catalog(); }

  /// Parses, asserting success.
  QueryAst Parse(const std::string& sql) {
    auto ast = ParseSql(sql, cat());
    EXPECT_TRUE(ast.ok()) << sql << " -> " << ast.status().ToString();
    return ast.ok() ? std::move(ast).value() : QueryAst();
  }

  Database db_;
};

TEST_F(ParserTest, SimpleSelect) {
  QueryAst ast = Parse("SELECT Score.ID FROM Score");
  ASSERT_EQ(ast.type, QueryType::kSelect);
  ASSERT_EQ(ast.select->tables.size(), 1u);
  ASSERT_EQ(ast.select->items.size(), 1u);
  EXPECT_EQ(ast.select->items[0].agg, AggFunc::kNone);
}

TEST_F(ParserTest, CaseInsensitiveKeywords) {
  QueryAst ast = Parse("select Score.ID from Score where Score.Grade < 70");
  EXPECT_EQ(ast.select->where.predicates.size(), 1u);
}

TEST_F(ParserTest, AggregatesAndMultipleItems) {
  QueryAst ast =
      Parse("SELECT Score.Course, MAX(Score.Grade), COUNT(Score.ID) "
            "FROM Score");
  ASSERT_EQ(ast.select->items.size(), 3u);
  EXPECT_EQ(ast.select->items[1].agg, AggFunc::kMax);
  EXPECT_EQ(ast.select->items[2].agg, AggFunc::kCount);
}

TEST_F(ParserTest, JoinOnClauseValidatedAndDiscarded) {
  QueryAst ast = Parse(
      "SELECT Student.Name FROM Score JOIN Student ON Score.ID = Student.ID");
  ASSERT_EQ(ast.select->tables.size(), 2u);
  // Either orientation of the edge, and the cross-join form.
  Parse("SELECT Student.Name FROM Score JOIN Student ON Student.ID = Score.ID");
  Parse("SELECT Student.Name FROM Score JOIN Student ON TRUE");
}

TEST_F(ParserTest, JoinOnOffTheChainEdgeIsRejected) {
  // Score.SID is not the FK column: the engines would join on Score.ID.
  auto bad = ParseSql(
      "SELECT Student.Name FROM Score JOIN Student ON Score.SID = Student.ID",
      cat());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find(
                "JOIN Student must be ON Score.ID = Student.ID"),
            std::string::npos)
      << bad.status().ToString();
}

TEST(ParserTpchTest, JoinOnMustNameTheEdgeTheChainJoinsOver) {
  // lineitem joins the first earlier chain table it has an edge to: part
  // here, so an ON that names its supplier edge describes another query.
  Database db = BuildTpchLike();
  const std::string prefix =
      "SELECT part.p_partkey FROM part"
      " JOIN partsupp ON partsupp.ps_partkey = part.p_partkey"
      " JOIN supplier ON partsupp.ps_suppkey = supplier.s_suppkey";
  auto bad = ParseSql(
      prefix + " JOIN lineitem ON lineitem.l_suppkey = supplier.s_suppkey",
      db.catalog());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find(
                "JOIN lineitem must be ON lineitem.l_partkey = part.p_partkey"),
            std::string::npos)
      << bad.status().ToString();
  const std::string good =
      prefix + " JOIN lineitem ON lineitem.l_partkey = part.p_partkey";
  auto ast = ParseSql(good, db.catalog());
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_EQ(RenderSql(*ast, db.catalog()), good);
  // In the other order the supplier edge is the one.
  EXPECT_TRUE(ParseSql(
                  "SELECT supplier.s_suppkey FROM supplier"
                  " JOIN partsupp ON partsupp.ps_suppkey = supplier.s_suppkey"
                  " JOIN part ON partsupp.ps_partkey = part.p_partkey"
                  " JOIN lineitem ON lineitem.l_suppkey = supplier.s_suppkey",
                  db.catalog())
                  .ok());
}

TEST_F(ParserTest, WhereConnectorsAndLiterals) {
  QueryAst ast = Parse(
      "SELECT Score.ID FROM Score WHERE Score.Grade >= 80.5 AND "
      "Score.Course = 'db' OR Score.SID <> 3");
  const WhereClause& w = ast.select->where;
  ASSERT_EQ(w.predicates.size(), 3u);
  ASSERT_EQ(w.connectors.size(), 2u);
  EXPECT_EQ(w.connectors[0], BoolConn::kAnd);
  EXPECT_EQ(w.connectors[1], BoolConn::kOr);
  EXPECT_TRUE(w.predicates[0].value.is_double());
  EXPECT_TRUE(w.predicates[1].value.is_string());
  EXPECT_TRUE(w.predicates[2].value.is_int());
  EXPECT_EQ(w.predicates[2].op, CompareOp::kNe);
}

TEST_F(ParserTest, EscapedStringLiteral) {
  QueryAst ast =
      Parse("SELECT Student.ID FROM Student WHERE Student.Name = 'o''brien'");
  EXPECT_EQ(ast.select->where.predicates[0].value.as_string(), "o'brien");
}

TEST_F(ParserTest, NegativeNumbers) {
  QueryAst ast =
      Parse("SELECT Score.ID FROM Score WHERE Score.Grade > -5.5");
  EXPECT_DOUBLE_EQ(ast.select->where.predicates[0].value.as_double(), -5.5);
}

TEST_F(ParserTest, GroupByHavingOrderBy) {
  QueryAst ast = Parse(
      "SELECT Score.Course FROM Score GROUP BY Score.Course "
      "HAVING COUNT(Score.Grade) > 3 ORDER BY Score.Course");
  EXPECT_EQ(ast.select->group_by.size(), 1u);
  ASSERT_TRUE(ast.select->having.has_value());
  EXPECT_EQ(ast.select->having->agg, AggFunc::kCount);
  EXPECT_EQ(ast.select->order_by.size(), 1u);
}

TEST_F(ParserTest, InSubquery) {
  QueryAst ast = Parse(
      "SELECT Score.ID FROM Score WHERE Score.ID IN "
      "(SELECT Student.ID FROM Student WHERE Student.Gender = 'F')");
  const Predicate& p = ast.select->where.predicates[0];
  EXPECT_EQ(p.kind, PredicateKind::kInSub);
  ASSERT_NE(p.subquery, nullptr);
  EXPECT_EQ(p.subquery->where.predicates.size(), 1u);
}

TEST_F(ParserTest, ScalarSubquery) {
  QueryAst ast = Parse(
      "SELECT Score.ID FROM Score WHERE Score.Grade > "
      "(SELECT AVG(Score.Grade) FROM Score)");
  const Predicate& p = ast.select->where.predicates[0];
  EXPECT_EQ(p.kind, PredicateKind::kScalarSub);
  EXPECT_EQ(p.op, CompareOp::kGt);
  EXPECT_EQ(p.subquery->items[0].agg, AggFunc::kAvg);
}

TEST_F(ParserTest, NotExists) {
  QueryAst ast = Parse(
      "SELECT Score.ID FROM Score WHERE NOT EXISTS "
      "(SELECT Student.ID FROM Student)");
  const Predicate& p = ast.select->where.predicates[0];
  EXPECT_EQ(p.kind, PredicateKind::kExistsSub);
  EXPECT_TRUE(p.negated);
}

TEST_F(ParserTest, Like) {
  QueryAst ast = Parse(
      "SELECT Student.ID FROM Student WHERE Student.Name LIKE '%da%'");
  const Predicate& p = ast.select->where.predicates[0];
  EXPECT_EQ(p.kind, PredicateKind::kLike);
  EXPECT_EQ(p.value.as_string(), "%da%");
}

TEST_F(ParserTest, InsertValues) {
  QueryAst ast = Parse("INSERT INTO Student VALUES (99, 'Zoe', 'F')");
  ASSERT_EQ(ast.type, QueryType::kInsert);
  ASSERT_EQ(ast.insert->values.size(), 3u);
  EXPECT_EQ(ast.insert->values[0].as_int(), 99);
}

TEST_F(ParserTest, InsertSelect) {
  QueryAst ast = Parse(
      "INSERT INTO Student SELECT Student.ID, Student.Name, Student.Gender "
      "FROM Student WHERE Student.Gender = 'F'");
  ASSERT_EQ(ast.type, QueryType::kInsert);
  ASSERT_NE(ast.insert->source, nullptr);
  EXPECT_EQ(ast.insert->source->items.size(), 3u);
}

TEST_F(ParserTest, Update) {
  QueryAst ast =
      Parse("UPDATE Score SET Grade = 100 WHERE Score.Course = 'ml'");
  ASSERT_EQ(ast.type, QueryType::kUpdate);
  EXPECT_EQ(ast.update->set_column.column_idx, 3);
  EXPECT_EQ(ast.update->where.predicates.size(), 1u);
}

TEST_F(ParserTest, DeleteBareAndFiltered) {
  QueryAst bare = Parse("DELETE FROM Score");
  EXPECT_EQ(bare.type, QueryType::kDelete);
  EXPECT_TRUE(bare.del->where.empty());
  QueryAst filt = Parse("DELETE FROM Score WHERE Score.Grade <= 65");
  EXPECT_EQ(filt.del->where.predicates.size(), 1u);
}

TEST_F(ParserTest, ErrorsAreStatuses) {
  EXPECT_FALSE(ParseSql("", cat()).ok());
  EXPECT_FALSE(ParseSql("SELECT", cat()).ok());
  EXPECT_FALSE(ParseSql("SELECT Nope.x FROM Nope", cat()).ok());
  EXPECT_FALSE(ParseSql("SELECT Score.Nope FROM Score", cat()).ok());
  EXPECT_FALSE(ParseSql("SELECT Score.ID FROM Score WHERE", cat()).ok());
  EXPECT_FALSE(ParseSql("SELECT Score.ID FROM Score trailing", cat()).ok());
  EXPECT_FALSE(
      ParseSql("SELECT Score.ID FROM Score WHERE Score.ID = 'x", cat()).ok());
  EXPECT_FALSE(ParseSql("DROP TABLE Score", cat()).ok());
}

TEST_F(ParserTest, RoundTripFixedQueries) {
  const char* queries[] = {
      "SELECT Score.ID FROM Score",
      "SELECT Score.ID FROM Score WHERE Score.Grade < 95",
      "SELECT Student.Name FROM Score JOIN Student ON Score.ID = Student.ID "
      "WHERE Score.Course = 'db' AND Score.Grade >= 80",
      "SELECT Score.Course FROM Score GROUP BY Score.Course HAVING "
      "AVG(Score.Grade) > 75",
      "SELECT Score.ID FROM Score WHERE Score.ID IN (SELECT Student.ID FROM "
      "Student) ORDER BY Score.ID",
      "UPDATE Score SET Grade = 99.5 WHERE Score.Course = 'db'",
      "INSERT INTO Student VALUES (7, 'New', 'M')",
      "DELETE FROM Score WHERE Score.Grade <= 65",
  };
  for (const char* sql : queries) {
    QueryAst ast = Parse(sql);
    std::string rendered = RenderSql(ast, cat());
    QueryAst again = Parse(rendered);
    EXPECT_EQ(RenderSql(again, cat()), rendered) << sql;
  }
}

/// Property: every FSM-generated query round-trips through text —
/// parse(render(ast)) renders identically. Run over several profiles.
class ParserRoundTripProperty : public ParserTest,
                                public ::testing::WithParamInterface<int> {};

TEST_P(ParserRoundTripProperty, FsmQueriesRoundTrip) {
  VocabularyOptions vo;
  vo.values_per_column = 8;
  auto vocab = Vocabulary::Build(db_, vo);
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
      profile = QueryProfile::SpjOnly();
      break;
  }
  GenerationFsm fsm(&db_, &*vocab, profile);
  Rng rng(500 + GetParam());
  for (int i = 0; i < 120; ++i) {
    auto ast = RandomWalkQuery(&fsm, &rng);
    ASSERT_TRUE(ast.ok());
    std::string rendered = RenderSql(*ast, cat());
    auto parsed = ParseSql(rendered, cat());
    ASSERT_TRUE(parsed.ok()) << rendered << " -> "
                             << parsed.status().ToString();
    EXPECT_EQ(RenderSql(*parsed, cat()), rendered);
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ParserRoundTripProperty,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace lsg
