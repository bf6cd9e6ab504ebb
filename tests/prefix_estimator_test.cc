// Tests for the incremental prefix estimator (src/optimizer/
// prefix_estimator): bitwise equivalence against the full estimator walk
// on a query grown token by token, and the defensive reset on a shrunk
// query. Training under LSG_CHECK_INCREMENTAL=1 (the core_test ctest
// entry that sets it) cross-checks every executable step the same way.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "optimizer/cardinality_estimator.h"
#include "optimizer/column_stats.h"
#include "optimizer/cost_model.h"
#include "optimizer/prefix_estimator.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

class PrefixEstimatorTest : public ::testing::Test {
 protected:
  PrefixEstimatorTest()
      : db_(BuildScoreStudentDb()),
        stats_(DatabaseStats::Collect(db_)),
        est_(&db_, &stats_),
        cost_(&est_) {}
  int score() { return db_.catalog().FindTable("Score"); }
  int student() { return db_.catalog().FindTable("Student"); }

  // Bitwise comparison on both metrics at the current prefix.
  void ExpectMatchesFull(PrefixEstimator* inc, const SelectQuery& q) {
    EXPECT_EQ(inc->Cardinality(q), est_.EstimateSelect(q, nullptr));
    EXPECT_EQ(inc->Cost(q), cost_.SelectCost(q));
  }

  Database db_;
  DatabaseStats stats_;
  CardinalityEstimator est_;
  CostModel cost_;
};

TEST_F(PrefixEstimatorTest, MatchesFullWalkOnGrowingQuery) {
  PrefixEstimator inc(&est_, &cost_);
  SelectQuery q;

  // Grow the query the way the FSM does: FROM chain, then SELECT items,
  // then WHERE predicates one at a time, then the GROUP BY tail.
  q.tables = {score()};
  q.items.push_back({AggFunc::kNone, {score(), 0}});
  ExpectMatchesFull(&inc, q);

  q.tables.push_back(student());
  ExpectMatchesFull(&inc, q);

  Predicate lt;
  lt.column = {score(), 3};
  lt.op = CompareOp::kLt;
  lt.value = Value(80.0);
  q.where.predicates.push_back(std::move(lt));
  ExpectMatchesFull(&inc, q);

  // Mutate the *last* predicate in place (a value token refining it).
  q.where.predicates.back().value = Value(95.0);
  ExpectMatchesFull(&inc, q);

  Predicate sub;
  sub.kind = PredicateKind::kInSub;
  sub.column = {score(), 1};
  sub.subquery = std::make_unique<SelectQuery>();
  sub.subquery->tables = {student()};
  sub.subquery->items.push_back({AggFunc::kNone, {student(), 0}});
  q.where.connectors.push_back(BoolConn::kAnd);
  q.where.predicates.push_back(std::move(sub));
  ExpectMatchesFull(&inc, q);

  q.group_by.push_back({score(), 2});
  ExpectMatchesFull(&inc, q);
  q.having = HavingClause{AggFunc::kCount, {score(), 3}, CompareOp::kGt,
                          Value(int64_t{3})};
  ExpectMatchesFull(&inc, q);
  q.order_by.push_back({score(), 3});
  ExpectMatchesFull(&inc, q);
}

TEST_F(PrefixEstimatorTest, ShrunkQueryTriggersDefensiveReset) {
  PrefixEstimator inc(&est_, &cost_);
  SelectQuery big;
  big.tables = {score(), student()};
  big.items.push_back({AggFunc::kNone, {score(), 0}});
  Predicate p;
  p.column = {score(), 3};
  p.op = CompareOp::kGe;
  p.value = Value(70.0);
  big.where.predicates.push_back(std::move(p));
  ExpectMatchesFull(&inc, big);

  // A smaller query on the same instance (as after an un-Reset episode
  // switch) must still match the full walk, not reuse the longer fold.
  SelectQuery small;
  small.tables = {score()};
  small.items.push_back({AggFunc::kNone, {score(), 0}});
  ExpectMatchesFull(&inc, small);
}

}  // namespace
}  // namespace lsg
