#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "optimizer/cardinality_estimator.h"
#include "optimizer/column_stats.h"
#include "optimizer/cost_model.h"
#include "tests/test_db.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  StatsTest() : db_(BuildScoreStudentDb()), stats_(DatabaseStats::Collect(db_)) {}
  int score() { return db_.catalog().FindTable("Score"); }
  int student() { return db_.catalog().FindTable("Student"); }
  Database db_;
  DatabaseStats stats_;
};

TEST_F(StatsTest, RowCounts) {
  EXPECT_EQ(stats_.table_rows[score()], 30u);
  EXPECT_EQ(stats_.table_rows[student()], 10u);
}

TEST_F(StatsTest, NdvAndRange) {
  const ColumnStats& grade = stats_.at({score(), 3});
  EXPECT_EQ(grade.ndv, 30u);
  EXPECT_DOUBLE_EQ(grade.min, 60.0);
  EXPECT_DOUBLE_EQ(grade.max, 99.0);
  EXPECT_NEAR(grade.mean, 79.5, 1e-9);
  const ColumnStats& course = stats_.at({score(), 2});
  EXPECT_EQ(course.ndv, 3u);
}

TEST_F(StatsTest, NullCounting) {
  Column c(DataType::kInt64);
  ASSERT_TRUE(c.Append(Value(int64_t{1})).ok());
  c.AppendNull();
  c.AppendNull();
  ColumnStats s = StatsCollector().Analyze(c);
  EXPECT_EQ(s.row_count, 3u);
  EXPECT_EQ(s.null_count, 2u);
  EXPECT_EQ(s.ndv, 1u);
}

TEST_F(StatsTest, McvFrequencies) {
  const ColumnStats& course = stats_.at({score(), 2});
  ASSERT_EQ(course.mcv_values.size(), 3u);
  double total = 0.0;
  for (double f : course.mcv_freqs) {
    EXPECT_NEAR(f, 1.0 / 3.0, 1e-9);
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(StatsTest, EqSelectivityMcvExact) {
  const ColumnStats& course = stats_.at({score(), 2});
  EXPECT_NEAR(course.EqSelectivity(Value("db")), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(course.EqSelectivity(Value("nope")), 0.0, 0.05);
}

TEST_F(StatsTest, EqSelectivityOutOfRangeNumericIsZero) {
  const ColumnStats& grade = stats_.at({score(), 3});
  EXPECT_DOUBLE_EQ(grade.EqSelectivity(Value(500.0)), 0.0);
  EXPECT_DOUBLE_EQ(grade.EqSelectivity(Value(-5.0)), 0.0);
}

TEST_F(StatsTest, LtSelectivityMonotone) {
  const ColumnStats& grade = stats_.at({score(), 3});
  double prev = -1.0;
  for (double v : {55.0, 65.0, 75.0, 85.0, 95.0, 105.0}) {
    double s = grade.LtSelectivity(Value(v));
    EXPECT_GE(s, prev);
    prev = s;
  }
  EXPECT_DOUBLE_EQ(grade.LtSelectivity(Value(55.0)), 0.0);
  EXPECT_DOUBLE_EQ(grade.LtSelectivity(Value(120.0)), 1.0);
}

TEST_F(StatsTest, LtSelectivityNearTruth) {
  const ColumnStats& grade = stats_.at({score(), 3});
  // True fraction below 70 is 8/30.
  EXPECT_NEAR(grade.LtSelectivity(Value(70.0)), 8.0 / 30.0, 0.08);
}

TEST_F(StatsTest, LtSelectivityBoundaryValues) {
  // A uniform 0..99 column: every histogram quantity is exact, so the
  // boundary cases pin precise values rather than tolerances.
  Column c(DataType::kInt64);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(c.Append(Value(int64_t{i})).ok());
  }
  ColumnStats s = StatsCollector().Analyze(c);
  ASSERT_GE(s.histogram_bounds.size(), 3u);

  // x == min: nothing sorts strictly below the minimum.
  EXPECT_DOUBLE_EQ(s.LtSelectivity(Value(0.0)), 0.0);

  // x exactly on an interior bound b: the CDF is b/buckets (binary search
  // must agree with the linear scan it replaced).
  const double buckets = static_cast<double>(s.histogram_bounds.size() - 1);
  for (size_t b = 1; b + 1 < s.histogram_bounds.size(); ++b) {
    EXPECT_DOUBLE_EQ(s.LtSelectivity(Value(s.histogram_bounds[b])),
                     static_cast<double>(b) / buckets)
        << "bound index " << b;
  }

  // x == max: one row equals the max, so `<` must leave room for it —
  // interpolation used to claim 1.0 here, pushing `<=` past the non-null
  // ceiling and `>` below zero before clamping.
  const double eq_max = s.EqSelectivity(Value(99.0));
  EXPECT_GT(eq_max, 0.0);
  EXPECT_DOUBLE_EQ(s.LtSelectivity(Value(99.0)), 1.0 - eq_max);
  EXPECT_DOUBLE_EQ(s.Selectivity(CompareOp::kLe, Value(99.0)), 1.0);
  // kGt/kGe subtract the rounded Lt result, so allow one-ulp residue.
  EXPECT_NEAR(s.Selectivity(CompareOp::kGt, Value(99.0)), 0.0, 1e-12);
  EXPECT_NEAR(s.Selectivity(CompareOp::kGe, Value(99.0)), eq_max, 1e-12);

  // Above the max the whole non-null mass is below x.
  EXPECT_DOUBLE_EQ(s.LtSelectivity(Value(100.0)), 1.0);
}

TEST_F(StatsTest, SelectivityOperatorAlgebra) {
  const ColumnStats& grade = stats_.at({score(), 3});
  Value v(80.0);
  double lt = grade.Selectivity(CompareOp::kLt, v);
  double eq = grade.Selectivity(CompareOp::kEq, v);
  double gt = grade.Selectivity(CompareOp::kGt, v);
  EXPECT_NEAR(lt + eq + gt, 1.0, 1e-6);
  EXPECT_NEAR(grade.Selectivity(CompareOp::kLe, v), lt + eq, 1e-9);
  EXPECT_NEAR(grade.Selectivity(CompareOp::kGe, v), gt + eq, 1e-9);
  EXPECT_NEAR(grade.Selectivity(CompareOp::kNe, v), 1.0 - eq, 1e-6);
}

TEST_F(StatsTest, SelectivityInUnitInterval) {
  const ColumnStats& grade = stats_.at({score(), 3});
  for (int op = 0; op < static_cast<int>(CompareOp::kNumOps); ++op) {
    for (double v : {-100.0, 60.0, 79.5, 99.0, 1000.0}) {
      double s = grade.Selectivity(static_cast<CompareOp>(op), Value(v));
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST_F(StatsTest, HistogramBoundsCoverDomain) {
  const ColumnStats& grade = stats_.at({score(), 3});
  ASSERT_GE(grade.histogram_bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(grade.histogram_bounds.front(), 60.0);
  EXPECT_DOUBLE_EQ(grade.histogram_bounds.back(), 99.0);
  for (size_t i = 1; i < grade.histogram_bounds.size(); ++i) {
    EXPECT_LE(grade.histogram_bounds[i - 1], grade.histogram_bounds[i]);
  }
}

// ------------------------------------------------------------- estimator

class EstimatorTest : public StatsTest {
 protected:
  EstimatorTest() : est_(&db_, &stats_), exec_(&db_) {}
  CardinalityEstimator est_;
  vexec::VectorizedEngine exec_;
};

TEST_F(EstimatorTest, FullScanExact) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  EXPECT_DOUBLE_EQ(est_.EstimateSelect(q, nullptr), 30.0);
}

TEST_F(EstimatorTest, EqFilterNearTruth) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  Predicate p;
  p.column = {score(), 2};
  p.op = CompareOp::kEq;
  p.value = Value("db");
  q.where.predicates.push_back(std::move(p));
  EXPECT_NEAR(est_.EstimateSelect(q, nullptr), 10.0, 1.0);
}

TEST_F(EstimatorTest, FkJoinNearTruth) {
  SelectQuery q;
  q.tables = {score(), student()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  // |Score| * |Student| / max(ndv) = 30*10/10 = 30 (exact here).
  EXPECT_NEAR(est_.EstimateSelect(q, nullptr), 30.0, 1.0);
}

TEST_F(EstimatorTest, AggregateCollapsesToOne) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kMax, {score(), 3}});
  EXPECT_DOUBLE_EQ(est_.EstimateSelect(q, nullptr), 1.0);
}

TEST_F(EstimatorTest, GroupByUsesNdv) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 2}});
  q.group_by.push_back({score(), 2});
  EXPECT_NEAR(est_.EstimateSelect(q, nullptr), 3.0, 0.5);
}

TEST_F(EstimatorTest, HavingShrinksGroups) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 2}});
  q.group_by.push_back({score(), 2});
  double no_having = est_.EstimateSelect(q, nullptr);
  q.having = HavingClause{AggFunc::kCount, {score(), 3}, CompareOp::kGt,
                          Value(int64_t{3})};
  EXPECT_LT(est_.EstimateSelect(q, nullptr), no_having);
}

TEST_F(EstimatorTest, ScalarSubqueryEstimatesAggValue) {
  SelectQuery sub;
  sub.tables = {score()};
  sub.items.push_back({AggFunc::kAvg, {score(), 3}});
  Value v = est_.EstimateScalar(sub);
  ASSERT_TRUE(v.is_numeric());
  EXPECT_NEAR(v.AsNumber(), 79.5, 1e-6);

  sub.items[0].agg = AggFunc::kMax;
  EXPECT_NEAR(est_.EstimateScalar(sub).AsNumber(), 99.0, 1e-6);
  sub.items[0].agg = AggFunc::kCount;
  EXPECT_NEAR(est_.EstimateScalar(sub).AsNumber(), 30.0, 1e-6);
}

TEST_F(EstimatorTest, InSubquerySelectivity) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  Predicate p;
  p.kind = PredicateKind::kInSub;
  p.column = {score(), 1};
  p.subquery = std::make_unique<SelectQuery>();
  p.subquery->tables = {student()};
  p.subquery->items.push_back({AggFunc::kNone, {student(), 0}});
  q.where.predicates.push_back(std::move(p));
  // All 10 student ids covered -> selectivity ~1 -> ~30 rows.
  EXPECT_NEAR(est_.EstimateSelect(q, nullptr), 30.0, 3.0);
}

TEST_F(EstimatorTest, ExistsSelectivityBoolean) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  Predicate p;
  p.kind = PredicateKind::kExistsSub;
  p.subquery = std::make_unique<SelectQuery>();
  p.subquery->tables = {student()};
  p.subquery->items.push_back({AggFunc::kNone, {student(), 0}});
  q.where.predicates.push_back(std::move(p));
  // Subquery has ~10 rows -> EXISTS true -> all rows kept.
  EXPECT_NEAR(est_.EstimateSelect(q, nullptr), 30.0, 1.0);
}

TEST_F(EstimatorTest, DmlEstimates) {
  QueryAst upd;
  upd.type = QueryType::kUpdate;
  upd.update = std::make_unique<UpdateQuery>();
  upd.update->table_idx = score();
  Predicate p;
  p.column = {score(), 2};
  p.op = CompareOp::kEq;
  p.value = Value("db");
  upd.update->where.predicates.push_back(std::move(p));
  EXPECT_NEAR(est_.EstimateCardinality(upd), 10.0, 1.0);

  QueryAst ins;
  ins.type = QueryType::kInsert;
  ins.insert = std::make_unique<InsertQuery>();
  ins.insert->table_idx = student();
  ins.insert->values = {Value(int64_t{1}), Value("a"), Value("F")};
  EXPECT_DOUBLE_EQ(est_.EstimateCardinality(ins), 1.0);
}

TEST_F(EstimatorTest, DetailStagesConsistent) {
  SelectQuery q;
  q.tables = {score(), student()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  Predicate p;
  p.column = {score(), 3};
  p.op = CompareOp::kLt;
  p.value = Value(70.0);
  q.where.predicates.push_back(std::move(p));
  EstimateDetail d;
  double out = est_.EstimateSelect(q, &d);
  EXPECT_DOUBLE_EQ(d.base_rows, 40.0);
  EXPECT_GT(d.join_output, 0.0);
  EXPECT_LE(d.after_where, d.join_output);
  EXPECT_DOUBLE_EQ(d.output_rows, out);
}

TEST_F(EstimatorTest, CrossJoinChainIsCapped) {
  // Three tables with no join edge between them: the estimator falls back
  // to a cross product, which must clamp at kMaxJoinRows instead of
  // running away toward inf on long chains.
  Database db;
  for (const char* name : {"A", "B", "C"}) {
    TableSchema s(name);
    ASSERT_TRUE(s.AddColumn({"id", DataType::kInt64, false, false}).ok());
    Table t(std::move(s));
    ASSERT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  }
  DatabaseStats stats = DatabaseStats::Collect(db);
  // Simulate large tables: only the row counts matter to the join fold.
  for (uint64_t& rows : stats.table_rows) rows = 100000000;  // 1e8
  CardinalityEstimator est(&db, &stats);

  SelectQuery q;
  q.tables = {0, 1};
  q.items.push_back({AggFunc::kNone, {0, 0}});
  // 1e8 * 1e8 = 1e16 exceeds the cap already at two tables.
  EXPECT_DOUBLE_EQ(est.EstimateSelect(q, nullptr),
                   CardinalityEstimator::kMaxJoinRows);
  q.tables.push_back(2);
  double three = est.EstimateSelect(q, nullptr);
  EXPECT_TRUE(std::isfinite(three));
  EXPECT_DOUBLE_EQ(three, CardinalityEstimator::kMaxJoinRows);
}

TEST_F(EstimatorTest, ScalarSubqueryFallbackIsOperatorDependent) {
  // A bare string-column subquery has no estimable scalar value, so the
  // predicate falls back to default selectivities — which must depend on
  // the operator (= is far more selective than < which beats <>), not be
  // a flat constant.
  auto rows_with_op = [&](CompareOp op) {
    SelectQuery q;
    q.tables = {score()};
    q.items.push_back({AggFunc::kNone, {score(), 0}});
    Predicate p;
    p.kind = PredicateKind::kScalarSub;
    p.column = {score(), 3};
    p.op = op;
    p.subquery = std::make_unique<SelectQuery>();
    p.subquery->tables = {student()};
    p.subquery->items.push_back({AggFunc::kNone, {student(), 1}});  // Name
    q.where.predicates.push_back(std::move(p));
    return est_.EstimateSelect(q, nullptr);
  };
  const double eq_rows = rows_with_op(CompareOp::kEq);
  const double lt_rows = rows_with_op(CompareOp::kLt);
  const double ne_rows = rows_with_op(CompareOp::kNe);
  EXPECT_LT(eq_rows, lt_rows);
  EXPECT_LT(lt_rows, ne_rows);
  EXPECT_DOUBLE_EQ(eq_rows, 30.0 * 0.005);
  EXPECT_DOUBLE_EQ(ne_rows, 30.0 * (1.0 - 0.005));
}

/// Property sweep: estimates stay within a bounded q-error of the truth for
/// single-predicate range queries across the whole grade domain.
class QErrorSweep : public EstimatorTest,
                    public ::testing::WithParamInterface<int> {};

TEST_P(QErrorSweep, RangePredicateQError) {
  double threshold = 58.0 + GetParam() * 4.0;
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  Predicate p;
  p.column = {score(), 3};
  p.op = CompareOp::kLt;
  p.value = Value(threshold);
  q.where.predicates.push_back(std::move(p));
  double est = est_.EstimateSelect(q, nullptr);
  auto truth = exec_.ExecuteSelect(q, false);
  ASSERT_TRUE(truth.ok());
  double t = static_cast<double>(truth->cardinality);
  double qerr = std::max((est + 1.0) / (t + 1.0), (t + 1.0) / (est + 1.0));
  EXPECT_LT(qerr, 3.0) << "threshold=" << threshold << " est=" << est
                       << " truth=" << t;
}

INSTANTIATE_TEST_SUITE_P(GradeThresholds, QErrorSweep,
                         ::testing::Range(0, 12));

// ------------------------------------------------------------- cost model

class CostModelTest : public EstimatorTest {
 protected:
  CostModelTest() : cost_(&est_) {}
  CostModel cost_;
};

TEST_F(CostModelTest, ScanCostPositiveAndMonotoneInRows) {
  SelectQuery small;
  small.tables = {student()};
  small.items.push_back({AggFunc::kNone, {student(), 0}});
  SelectQuery big;
  big.tables = {score()};
  big.items.push_back({AggFunc::kNone, {score(), 0}});
  EXPECT_GT(cost_.SelectCost(small), 0.0);
  EXPECT_GT(cost_.SelectCost(big), cost_.SelectCost(small));
}

TEST_F(CostModelTest, JoinCostsMoreThanScan) {
  SelectQuery scan;
  scan.tables = {score()};
  scan.items.push_back({AggFunc::kNone, {score(), 0}});
  double scan_cost = cost_.SelectCost(scan);
  scan.tables.push_back(student());
  EXPECT_GT(cost_.SelectCost(scan), scan_cost);
}

TEST_F(CostModelTest, SubqueryAddsCost) {
  SelectQuery q;
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  double base = cost_.SelectCost(q);
  Predicate p;
  p.kind = PredicateKind::kScalarSub;
  p.column = {score(), 3};
  p.op = CompareOp::kGt;
  p.subquery = std::make_unique<SelectQuery>();
  p.subquery->tables = {score()};
  p.subquery->items.push_back({AggFunc::kAvg, {score(), 3}});
  q.where.predicates.push_back(std::move(p));
  EXPECT_GT(cost_.SelectCost(q), base);
}

TEST_F(CostModelTest, DmlCostScalesWithAffectedRows) {
  QueryAst narrow;
  narrow.type = QueryType::kDelete;
  narrow.del = std::make_unique<DeleteQuery>();
  narrow.del->table_idx = score();
  Predicate p;
  p.column = {score(), 3};
  p.op = CompareOp::kLt;
  p.value = Value(61.0);
  narrow.del->where.predicates.push_back(std::move(p));

  QueryAst wide;
  wide.type = QueryType::kDelete;
  wide.del = std::make_unique<DeleteQuery>();
  wide.del->table_idx = score();
  EXPECT_GT(cost_.EstimateCost(wide), cost_.EstimateCost(narrow));
}

TEST_F(CostModelTest, TrueCostFromMeasuredStats) {
  SelectQuery q;
  q.tables = {score(), student()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  auto r = exec_.ExecuteSelect(q, false);
  ASSERT_TRUE(r.ok());
  double tc = cost_.TrueCost(r->stats, static_cast<double>(r->cardinality));
  EXPECT_GT(tc, 0.0);
  // Same order of magnitude as the estimate (both priced by one model).
  double est_cost = cost_.SelectCost(q);
  EXPECT_LT(std::abs(std::log10(tc / est_cost)), 1.0);
}

TEST_F(CostModelTest, InsertValuesIsCheap) {
  QueryAst ins;
  ins.type = QueryType::kInsert;
  ins.insert = std::make_unique<InsertQuery>();
  ins.insert->table_idx = student();
  ins.insert->values = {Value(int64_t{1}), Value("a"), Value("F")};
  SelectQuery scan;
  scan.tables = {score()};
  scan.items.push_back({AggFunc::kNone, {score(), 0}});
  EXPECT_LT(cost_.EstimateCost(ins), cost_.SelectCost(scan));
}

// The orderings above would survive a mistyped cost constant; these exact
// bit patterns would not. Between them the cases read every constant:
// scan pages and tuples, hash build and probe, predicate and sort
// operators, grouping, subquery work and DML writes.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST_F(CostModelTest, ExactValuesArePinned) {
  SelectQuery scan;
  scan.tables = {score()};
  scan.items.push_back({AggFunc::kNone, {score(), 0}});
  EXPECT_EQ(Bits(cost_.SelectCost(scan)), 0x3ff0cccccccccccdull);

  SelectQuery join;
  join.tables = {score(), student()};
  join.items.push_back({AggFunc::kNone, {score(), 0}});
  Predicate lt;
  lt.column = {score(), 3};
  lt.op = CompareOp::kLt;
  lt.value = Value(70.0);
  join.where.predicates.push_back(std::move(lt));
  EXPECT_EQ(Bits(cost_.SelectCost(join)), 0x3fff47ae147ae148ull);

  SelectQuery grouped;
  grouped.tables = {score()};
  grouped.items.push_back({AggFunc::kNone, {score(), 2}});
  grouped.group_by.push_back({score(), 2});
  grouped.order_by.push_back({score(), 2});
  EXPECT_EQ(Bits(cost_.SelectCost(grouped)), 0x3ff651eb851eb852ull);

  SelectQuery nested;
  nested.tables = {score()};
  nested.items.push_back({AggFunc::kNone, {score(), 0}});
  Predicate sub;
  sub.kind = PredicateKind::kScalarSub;
  sub.column = {score(), 3};
  sub.op = CompareOp::kGt;
  sub.subquery = std::make_unique<SelectQuery>();
  sub.subquery->tables = {score()};
  sub.subquery->items.push_back({AggFunc::kAvg, {score(), 3}});
  nested.where.predicates.push_back(std::move(sub));
  EXPECT_EQ(Bits(cost_.SelectCost(nested)), 0x40020a3d70a3d70aull);

  QueryAst del;
  del.type = QueryType::kDelete;
  del.del = std::make_unique<DeleteQuery>();
  del.del->table_idx = score();
  Predicate p;
  p.column = {score(), 3};
  p.op = CompareOp::kLt;
  p.value = Value(61.0);
  del.del->where.predicates.push_back(std::move(p));
  EXPECT_EQ(Bits(cost_.EstimateCost(del)), 0x3ffacccccccccccdull);

  SelectQuery measured;
  measured.tables = {score(), student()};
  measured.items.push_back({AggFunc::kNone, {score(), 0}});
  auto r = exec_.ExecuteSelect(measured, false);
  ASSERT_TRUE(r.ok());
  const double tc =
      cost_.TrueCost(r->stats, static_cast<double>(r->cardinality));
  EXPECT_EQ(Bits(tc), 0x3fff333333333333ull);
}

}  // namespace
}  // namespace lsg
