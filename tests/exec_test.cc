#include <gtest/gtest.h>

#include "exec/expression.h"
#include "tests/test_db.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

// ----------------------------------------------------------- expression

TEST(CompareValuesTest, AllOperators) {
  Value a(int64_t{3}), b(int64_t{5});
  EXPECT_TRUE(CompareValues(a, CompareOp::kLt, b));
  EXPECT_FALSE(CompareValues(a, CompareOp::kGt, b));
  EXPECT_FALSE(CompareValues(a, CompareOp::kEq, b));
  EXPECT_TRUE(CompareValues(a, CompareOp::kLe, b));
  EXPECT_FALSE(CompareValues(a, CompareOp::kGe, b));
  EXPECT_TRUE(CompareValues(a, CompareOp::kNe, b));
  EXPECT_TRUE(CompareValues(a, CompareOp::kEq, Value(3.0)));
}

TEST(CompareValuesTest, NullNeverMatches) {
  EXPECT_FALSE(CompareValues(Value::Null(), CompareOp::kEq, Value::Null()));
  EXPECT_FALSE(CompareValues(Value::Null(), CompareOp::kLt, Value(int64_t{1})));
  EXPECT_FALSE(CompareValues(Value(int64_t{1}), CompareOp::kNe, Value::Null()));
}

TEST(CombinePredicatesTest, EmptyIsTrue) {
  EXPECT_TRUE(CombinePredicates({}, {}));
}

TEST(CombinePredicatesTest, AndOrPrecedence) {
  // false OR true AND true == false OR (true AND true) == true
  EXPECT_TRUE(CombinePredicates({false, true, true},
                                {BoolConn::kOr, BoolConn::kAnd}));
  // true OR false AND false == true OR (false AND false) == true
  EXPECT_TRUE(CombinePredicates({true, false, false},
                                {BoolConn::kOr, BoolConn::kAnd}));
  // false AND true OR false == (false AND true) OR false == false
  EXPECT_FALSE(CombinePredicates({false, true, false},
                                 {BoolConn::kAnd, BoolConn::kOr}));
  // false AND true OR true == true
  EXPECT_TRUE(CombinePredicates({false, true, true},
                                {BoolConn::kAnd, BoolConn::kOr}));
}

TEST(CombineSelectivitiesTest, Independence) {
  EXPECT_DOUBLE_EQ(CombineSelectivities({0.5, 0.5}, {BoolConn::kAnd}), 0.25);
  EXPECT_DOUBLE_EQ(CombineSelectivities({0.5, 0.5}, {BoolConn::kOr}), 0.75);
  EXPECT_DOUBLE_EQ(CombineSelectivities({1.0}, {}), 1.0);
}

TEST(CombineSelectivitiesTest, PrecedenceMatchesBoolean) {
  // a OR b AND c -> a + (b*c) - a*(b*c)
  double s = CombineSelectivities({0.1, 0.5, 0.4},
                                  {BoolConn::kOr, BoolConn::kAnd});
  EXPECT_NEAR(s, 0.1 + 0.2 - 0.1 * 0.2, 1e-12);
}

TEST(CombineSelectivitiesTest, Clamped) {
  double s = CombineSelectivities({1.0, 1.0}, {BoolConn::kOr});
  EXPECT_LE(s, 1.0);
  EXPECT_GE(CombineSelectivities({0.0, 0.0}, {BoolConn::kAnd}), 0.0);
}

// ------------------------------------------------ the production engine

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : db_(BuildScoreStudentDb()), exec_(&db_) {}

  int score() { return db_.catalog().FindTable("Score"); }
  int student() { return db_.catalog().FindTable("Student"); }

  SelectQuery ScanScore() {
    SelectQuery q;
    q.tables = {score()};
    q.items.push_back({AggFunc::kNone, {score(), 0}});
    return q;
  }

  Predicate GradePred(CompareOp op, double v) {
    Predicate p;
    p.column = {score(), 3};
    p.op = op;
    p.value = Value(v);
    return p;
  }

  Predicate CoursePred(const char* course) {
    Predicate p;
    p.column = {score(), 2};
    p.op = CompareOp::kEq;
    p.value = Value(course);
    return p;
  }

  uint64_t Card(const SelectQuery& q) {
    auto r = exec_.ExecuteSelect(q, false);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->cardinality;
  }

  Database db_;
  vexec::VectorizedEngine exec_;
};

TEST_F(ExecutorTest, FullScan) { EXPECT_EQ(Card(ScanScore()), 30u); }

TEST_F(ExecutorTest, RangeFilter) {
  SelectQuery q = ScanScore();
  q.where.predicates.push_back(GradePred(CompareOp::kLt, 70.0));
  EXPECT_EQ(Card(q), 8u);  // grades 60,61,62,63,64,67,68,69
}

TEST_F(ExecutorTest, EqualityFilter) {
  SelectQuery q = ScanScore();
  q.where.predicates.push_back(CoursePred("db"));
  EXPECT_EQ(Card(q), 10u);
}

TEST_F(ExecutorTest, OrCombination) {
  SelectQuery q = ScanScore();
  q.where.predicates.push_back(GradePred(CompareOp::kLt, 70.0));
  q.where.predicates.push_back(CoursePred("db"));
  q.where.connectors.push_back(BoolConn::kOr);
  EXPECT_EQ(Card(q), 15u);  // 8 + 10 - 3 overlapping
}

TEST_F(ExecutorTest, AndCombination) {
  SelectQuery q = ScanScore();
  q.where.predicates.push_back(GradePred(CompareOp::kLt, 70.0));
  q.where.predicates.push_back(CoursePred("db"));
  q.where.connectors.push_back(BoolConn::kAnd);
  EXPECT_EQ(Card(q), 3u);  // grades 67, 68, 69
}

TEST_F(ExecutorTest, FkJoinPreservesFactRows) {
  SelectQuery q = ScanScore();
  q.tables.push_back(student());
  EXPECT_EQ(Card(q), 30u);  // every score matches exactly one student
}

TEST_F(ExecutorTest, JoinWithDimensionFilter) {
  SelectQuery q = ScanScore();
  q.tables.push_back(student());
  Predicate p;
  p.column = {student(), 2};
  p.op = CompareOp::kEq;
  p.value = Value("F");
  q.where.predicates.push_back(std::move(p));
  EXPECT_EQ(Card(q), 15u);  // students 0,2,4,6,8 x 3 scores each
}

TEST_F(ExecutorTest, JoinInReverseDirection) {
  SelectQuery q;
  q.tables = {student(), score()};
  q.items.push_back({AggFunc::kNone, {student(), 1}});
  EXPECT_EQ(Card(q), 30u);
}

TEST_F(ExecutorTest, GroupByCountsGroups) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 2}});
  q.group_by.push_back({score(), 2});
  EXPECT_EQ(Card(q), 3u);  // math, db, ml
}

TEST_F(ExecutorTest, HavingFiltersGroups) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 2}});
  q.group_by.push_back({score(), 2});
  q.having = HavingClause{AggFunc::kCount, {score(), 3}, CompareOp::kGt,
                          Value(int64_t{3})};
  EXPECT_EQ(Card(q), 3u);  // every course has 10 scores
  q.having->value = Value(int64_t{10});
  EXPECT_EQ(Card(q), 0u);
}

TEST_F(ExecutorTest, HavingMaxPerGroup) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 2}});
  q.group_by.push_back({score(), 2});
  // Max grade overall is 99 (course of i=29: 29%3=2 -> "ml").
  q.having = HavingClause{AggFunc::kMax, {score(), 3}, CompareOp::kGe,
                          Value(99.0)};
  EXPECT_EQ(Card(q), 1u);
}

TEST_F(ExecutorTest, AggregateCollapsesToOneRow) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kMax, {score(), 3}});
  auto r = exec_.ExecuteSelect(q, /*materialize=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cardinality, 1u);
  ASSERT_EQ(r->first_column.size(), 1u);
  EXPECT_DOUBLE_EQ(r->first_column[0].AsNumber(), 99.0);
}

TEST_F(ExecutorTest, AggregateValues) {
  for (auto [agg, expected] :
       std::vector<std::pair<AggFunc, double>>{{AggFunc::kMin, 60.0},
                                               {AggFunc::kMax, 99.0},
                                               {AggFunc::kAvg, 79.5},
                                               {AggFunc::kCount, 30.0}}) {
    SelectQuery q;
    q.tables = {score()};
    q.items.push_back({agg, {score(), 3}});
    auto r = exec_.ExecuteSelect(q, true);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->first_column[0].AsNumber(), expected)
        << AggFuncName(agg);
  }
}

TEST_F(ExecutorTest, InSubquery) {
  SelectQuery q = ScanScore();
  Predicate p;
  p.kind = PredicateKind::kInSub;
  p.column = {score(), 1};
  p.subquery = std::make_unique<SelectQuery>();
  p.subquery->tables = {student()};
  p.subquery->items.push_back({AggFunc::kNone, {student(), 0}});
  Predicate inner;
  inner.column = {student(), 2};
  inner.op = CompareOp::kEq;
  inner.value = Value("F");
  p.subquery->where.predicates.push_back(std::move(inner));
  q.where.predicates.push_back(std::move(p));
  EXPECT_EQ(Card(q), 15u);
}

TEST_F(ExecutorTest, ScalarSubqueryAgainstAvg) {
  SelectQuery q = ScanScore();
  Predicate p;
  p.kind = PredicateKind::kScalarSub;
  p.column = {score(), 3};
  p.op = CompareOp::kGt;
  p.subquery = std::make_unique<SelectQuery>();
  p.subquery->tables = {score()};
  p.subquery->items.push_back({AggFunc::kAvg, {score(), 3}});
  q.where.predicates.push_back(std::move(p));
  EXPECT_EQ(Card(q), 15u);  // grades above the mean of 79.5
}

TEST_F(ExecutorTest, ExistsSubquery) {
  for (bool negated : {false, true}) {
    SelectQuery q = ScanScore();
    Predicate p;
    p.kind = PredicateKind::kExistsSub;
    p.negated = negated;
    p.subquery = std::make_unique<SelectQuery>();
    p.subquery->tables = {student()};
    p.subquery->items.push_back({AggFunc::kNone, {student(), 0}});
    Predicate inner;
    inner.column = {student(), 2};
    inner.op = CompareOp::kEq;
    inner.value = Value("X");  // no such gender
    p.subquery->where.predicates.push_back(std::move(inner));
    q.where.predicates.push_back(std::move(p));
    EXPECT_EQ(Card(q), negated ? 30u : 0u);
  }
}

TEST_F(ExecutorTest, MaterializeFirstColumnPlain) {
  SelectQuery q = ScanScore();
  q.where.predicates.push_back(CoursePred("db"));
  auto r = exec_.ExecuteSelect(q, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first_column.size(), 10u);
}

TEST_F(ExecutorTest, GroupByMaterializesPerGroup) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kMax, {score(), 3}});
  q.items.push_back({AggFunc::kNone, {score(), 2}});
  q.group_by.push_back({score(), 2});
  auto r = exec_.ExecuteSelect(q, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first_column.size(), 3u);
}

TEST_F(ExecutorTest, StatsTrackWork) {
  SelectQuery q = ScanScore();
  q.tables.push_back(student());
  auto r = exec_.ExecuteSelect(q, false);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->stats.rows_scanned, 40.0);  // 30 + 10
  EXPECT_DOUBLE_EQ(r->stats.rows_joined, 30.0);
}

TEST_F(ExecutorTest, IntermediateLimitGuard) {
  vexec::VectorizedEngine tiny(
      &db_, vexec::VexecOptions{.max_intermediate_tuples = 10});
  SelectQuery q = ScanScore();
  q.tables.push_back(student());
  auto r = tiny.ExecuteSelect(q, false);
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ExecutorTest, MissingFkEdgeRejected) {
  // Student joined with Student is not in the FK graph.
  SelectQuery q;
  q.tables = {student(), student()};
  q.items.push_back({AggFunc::kNone, {student(), 0}});
  auto r = exec_.ExecuteSelect(q, false);
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, EmptyFromRejected) {
  SelectQuery q;
  auto r = exec_.ExecuteSelect(q, false);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- cardinality

TEST_F(ExecutorTest, QueryAstCardinalityDispatch) {
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>(ScanScore());
  auto c = exec_.Cardinality(ast);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 30u);
}

// ----------------------------------------------------------- DML

// A DML statement's cardinality is the number of rows it would affect
// (a dry run: the database is not mutated).
class DmlTest : public ExecutorTest {};

TEST_F(DmlTest, InsertValuesAffectsOneRow) {
  QueryAst ast;
  ast.type = QueryType::kInsert;
  ast.insert = std::make_unique<InsertQuery>();
  ast.insert->table_idx = student();
  ast.insert->values = {Value(int64_t{99}), Value("Zoe"), Value("F")};
  auto n = exec_.Cardinality(ast);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

TEST_F(DmlTest, InsertSelectCountsSourceRows) {
  QueryAst ast;
  ast.type = QueryType::kInsert;
  ast.insert = std::make_unique<InsertQuery>();
  ast.insert->table_idx = student();
  ast.insert->source = std::make_unique<SelectQuery>();
  ast.insert->source->tables = {student()};
  for (int c = 0; c < 3; ++c) {
    ast.insert->source->items.push_back({AggFunc::kNone, {student(), c}});
  }
  Predicate p;
  p.column = {student(), 2};
  p.op = CompareOp::kEq;
  p.value = Value("F");
  ast.insert->source->where.predicates.push_back(std::move(p));
  auto n = exec_.Cardinality(ast);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
}

TEST_F(DmlTest, UpdateCountsMatchingRows) {
  QueryAst ast;
  ast.type = QueryType::kUpdate;
  ast.update = std::make_unique<UpdateQuery>();
  ast.update->table_idx = score();
  ast.update->set_column = {score(), 3};
  ast.update->set_value = Value(100.0);
  ast.update->where.predicates.push_back(CoursePred("db"));
  auto n = exec_.Cardinality(ast);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
}

TEST_F(DmlTest, UpdateWithoutWhereAffectsAllRows) {
  QueryAst ast;
  ast.type = QueryType::kUpdate;
  ast.update = std::make_unique<UpdateQuery>();
  ast.update->table_idx = score();
  ast.update->set_column = {score(), 3};
  ast.update->set_value = Value(0.0);
  auto n = exec_.Cardinality(ast);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 30u);
}

TEST_F(DmlTest, DeleteCountsMatchingRows) {
  QueryAst ast;
  ast.type = QueryType::kDelete;
  ast.del = std::make_unique<DeleteQuery>();
  ast.del->table_idx = score();
  ast.del->where.predicates.push_back(GradePred(CompareOp::kLe, 65.0));
  auto n = exec_.Cardinality(ast);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);  // grades 60..64 (65 is absent from the data)
}

TEST_F(DmlTest, DryRunDoesNotMutate) {
  QueryAst ast;
  ast.type = QueryType::kDelete;
  ast.del = std::make_unique<DeleteQuery>();
  ast.del->table_idx = score();
  ASSERT_TRUE(exec_.Cardinality(ast).ok());
  EXPECT_EQ(db_.FindTable("Score")->num_rows(), 30u);
}

}  // namespace
}  // namespace lsg
