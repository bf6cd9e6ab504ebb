// Vectorized execution engine suite: batch/selection-vector boundary
// cases, NULL and duplicate join keys, the join cap, aggregation edges,
// GROUP BY key equivalence classes and group order, the clean half of the
// vexec lockstep oracle's mutation tests (the mutant halves are in
// vexec_mutant_test.cc), the hand-pinned results and work-meter
// regressions of the nested-loop reference evaluator, and a randomized
// differential sweep (vectorized engine vs. reference evaluator, bitwise)
// over every bundled dataset.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/workload.h"
#include "fsm/generation_fsm.h"
#include "fuzz/oracle.h"
#include "fuzz/reference_eval.h"
#include "fuzz/test_databases.h"
#include "obs/metrics_registry.h"
#include "obs/obs.h"
#include "sql/render.h"
#include "tests/vexec_test_db.h"
#include "vexec/batch.h"
#include "vexec/hash_table.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

using vexec::kBatchSize;
using vexec::VectorizedEngine;
using vexec::VexecOptions;

// ---------------------------------------------------------------- helpers

/// The reference evaluator's default work budget.
constexpr uint64_t kRefWork = 1ull << 26;

/// Runs the SELECT through the reference evaluator and the vectorized
/// engine, under the same join cap and both materialize settings
/// (count-only SELECTs take the vectorized engine's count path), and
/// asserts bitwise-identical results: status (code and message),
/// cardinality, first_column (exact Values), and ExecStats.
void ExpectSelectAgrees(const Database& db, const SelectQuery& q,
                        VexecOptions opts = {}) {
  ReferenceEvaluator ref(&db, kRefWork, opts.max_intermediate_tuples);
  VectorizedEngine vec(&db, opts);
  for (const bool materialize : {true, false}) {
    SCOPED_TRACE(materialize ? "materialized" : "count-only");
    auto a = ref.ExecuteSelect(q, materialize);
    auto b = vec.ExecuteSelect(q, materialize);
    ASSERT_EQ(a.ok(), b.ok()) << a.status().ToString() << " vs "
                              << b.status().ToString();
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code());
      EXPECT_EQ(a.status().message(), b.status().message());
      continue;
    }
    EXPECT_EQ(a->cardinality, b->cardinality);
    ASSERT_EQ(a->first_column.size(), b->first_column.size());
    for (size_t i = 0; i < a->first_column.size(); ++i) {
      const Value& va = a->first_column[i];
      const Value& vb = b->first_column[i];
      EXPECT_EQ(va.is_null(), vb.is_null()) << "row " << i;
      if (!va.is_null() && !vb.is_null()) {
        EXPECT_EQ(va.Compare(vb), 0)
            << "row " << i << ": " << va.ToSqlLiteral() << " vs "
            << vb.ToSqlLiteral();
      }
    }
    EXPECT_EQ(a->stats.rows_scanned, b->stats.rows_scanned);
    EXPECT_EQ(a->stats.rows_joined, b->stats.rows_joined);
    EXPECT_EQ(a->stats.rows_probed, b->stats.rows_probed);
    EXPECT_EQ(a->stats.rows_output, b->stats.rows_output);
  }
}

/// Cardinality of `q` in both engines, asserted equal (with the rest of
/// the result, under both materialize settings) by ExpectSelectAgrees.
uint64_t AgreedCount(const Database& db, const SelectQuery& q,
                     VexecOptions opts = {}) {
  ExpectSelectAgrees(db, q, opts);
  auto r = VectorizedEngine(&db, opts).ExecuteSelect(q, false);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->cardinality : 0;
}

// ------------------------------------------------------- boundary cases

TEST(VexecBoundaryTest, EmptyTables) {
  Database db = BuildJoinDb(/*fact_keys=*/{}, /*dim_ids=*/{});
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");

  // Plain scan of an empty table.
  ExpectSelectAgrees(db, SelectAll(fact));

  // Join with both sides empty.
  SelectQuery join = SelectAll(fact);
  join.tables.push_back(dim);
  ExpectSelectAgrees(db, join);

  // Aggregate over an empty input still yields one row in both engines.
  SelectQuery agg = SelectAll(fact, /*item_col=*/2);
  agg.items[0].agg = AggFunc::kCount;
  ExpectSelectAgrees(db, agg);
  agg.items[0].agg = AggFunc::kSum;
  ExpectSelectAgrees(db, agg);
}

TEST(VexecBoundaryTest, SelectionVectorEdgeAtBatchSize) {
  // Sizes straddling the batch boundary: the last tuple of a full batch,
  // a batch-plus-one tail, and an exact multiple. The predicate keeps
  // every even id, so the final tuple of each batch flips kept/dropped
  // depending on parity — exactly the off-by-one surface.
  for (size_t n : {kBatchSize - 1, kBatchSize, kBatchSize + 1,
                   2 * kBatchSize}) {
    std::vector<int64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i % 7);
    Database db = BuildJoinDb(keys, /*dim_ids=*/{0, 1, 2});
    const int fact = db.catalog().FindTable("Fact");
    SelectQuery q = SelectAll(fact);
    q.where.predicates.push_back(
        ValuePred(fact, 1, CompareOp::kLe, Value(int64_t{3})));
    ExpectSelectAgrees(db, q);

    // Exact expected count: keys cycle 0..6, kept when key <= 3.
    ReferenceEvaluator ref(&db);
    auto r = ref.ExecuteSelect(q, false);
    ASSERT_TRUE(r.ok());
    uint64_t want = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i % 7 <= 3) ++want;
    }
    EXPECT_EQ(r->cardinality, want);
  }
}

TEST(VexecBoundaryTest, NullKeysNeverJoin) {
  // NULLs on the probe side, the build side, and both.
  Database db = BuildJoinDb(/*fact_keys=*/{0, kNull, 1, kNull, 2},
                            /*dim_ids=*/{0, kNull, 2, kNull});
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");
  SelectQuery q = SelectAll(fact);
  q.tables.push_back(dim);
  ExpectSelectAgrees(db, q);
  ReferenceEvaluator ref(&db);
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>(std::move(q));
  auto card = ref.Cardinality(ast);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(*card, 2u);  // keys 0 and 2 match; NULL never does
}

TEST(VexecBoundaryTest, DuplicateKeyBuildSide) {
  // Duplicate build keys: every probe hit fans out in build insertion
  // order, so first_column equality proves the chain order matches the
  // reference's nested loop: probe tuple, then build rows ascending.
  Database db = BuildJoinDb(/*fact_keys=*/{5, 5, 7},
                            /*dim_ids=*/{5, 5, 5, 7, 7});
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");
  SelectQuery q;
  q.tables = {fact, dim};
  SelectItem item;
  item.column = {dim, 1};  // Dim.tag distinguishes the duplicate rows
  q.items.push_back(std::move(item));
  ExpectSelectAgrees(db, q);
  VectorizedEngine vec(&db);
  auto r = vec.ExecuteSelect(q, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cardinality, 2u * 3u + 1u * 2u);
}

TEST(VexecBoundaryTest, JoinCapCountsTheWholeJoin) {
  // At cap = total - 1 both engines must refuse the join, at cap = total
  // both must run it. In the N:1 order (Fact probes Dim) the fact side
  // spans four batches and each batch's output stays below the cap, so
  // only the running total over the whole probe crosses it; in the 1:N
  // order (Dim probes Fact) one probe's duplicate chain crosses it.
  const size_t n = 3 * kBatchSize + 5;
  std::vector<int64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i % 3);
  Database db = BuildJoinDb(keys, /*dim_ids=*/{0, 1, 2});
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");
  for (const std::vector<int>& chain :
       {std::vector<int>{fact, dim}, std::vector<int>{dim, fact}}) {
    SelectQuery q = SelectAll(chain[0]);
    q.tables = chain;
    for (uint64_t cap : {uint64_t{n - 1}, uint64_t{n}}) {
      SCOPED_TRACE(RenderSelect(q, db.catalog()) + " cap " +
                   std::to_string(cap));
      const VexecOptions opts{.max_intermediate_tuples = cap};
      ExpectSelectAgrees(db, q, opts);
      ReferenceEvaluator ref(&db, kRefWork, cap);
      VectorizedEngine vec(&db, opts);
      auto a = ref.ExecuteSelect(q, false);
      auto b = vec.ExecuteSelect(q, false);
      if (cap < n) {
        ASSERT_FALSE(a.ok() || b.ok());
        EXPECT_EQ(a.status().code(), StatusCode::kOutOfRange);
        EXPECT_EQ(b.status().code(), StatusCode::kOutOfRange);
      } else {
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a->cardinality, n);
        EXPECT_EQ(b->cardinality, n);
        EXPECT_EQ(b->stats.rows_joined, static_cast<double>(n));
      }
    }
  }
}

TEST(VexecBoundaryTest, AggregationOverZeroGroups) {
  Database db = BuildJoinDb(/*fact_keys=*/{1, 2, 3}, /*dim_ids=*/{1, 2, 3});
  const int fact = db.catalog().FindTable("Fact");
  // WHERE matches nothing -> zero groups -> zero output rows.
  SelectQuery q = SelectAll(fact, /*item_col=*/2);
  q.items[0].agg = AggFunc::kAvg;
  q.where.predicates.push_back(
      ValuePred(fact, 1, CompareOp::kGt, Value(int64_t{100})));
  q.group_by.push_back({fact, 1});
  ExpectSelectAgrees(db, q);
  VectorizedEngine vec(&db);
  auto r = vec.ExecuteSelect(q, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cardinality, 0u);
  EXPECT_TRUE(r->first_column.empty());
}

TEST(VexecBoundaryTest, ScalarSubqueryOfSeveralRowsIsFalse) {
  // Fact.key >= (SELECT Dim.id FROM Dim [WHERE Dim.id = 1]): over three
  // Dim rows the subquery is no scalar and the predicate is false for
  // every row, not compared with the first row; over one row it is a
  // plain comparison with 1.
  Database db = BuildJoinDb(/*fact_keys=*/{0, 1, 2, kNull, 2},
                            /*dim_ids=*/{0, 1, 2});
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");
  for (const bool one_row : {false, true}) {
    SelectQuery q = SelectAll(fact);
    Predicate p;
    p.kind = PredicateKind::kScalarSub;
    p.column = {fact, 1};
    p.op = CompareOp::kGe;
    p.subquery = std::make_unique<SelectQuery>(SelectAll(dim));
    if (one_row) {
      p.subquery->where.predicates.push_back(
          ValuePred(dim, 0, CompareOp::kEq, Value(int64_t{1})));
    }
    q.where.predicates.push_back(std::move(p));
    SCOPED_TRACE(RenderSelect(q, db.catalog()));
    EXPECT_EQ(AgreedCount(db, q), one_row ? 3u : 0u);
  }
}

TEST(VexecBoundaryTest, MatchRowsAgreesOnEmptyAndNonEmptyWhere) {
  std::vector<int64_t> keys(kBatchSize + 3);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(i % 5);
  }
  Database db = BuildJoinDb(keys, /*dim_ids=*/{0, 1});
  const int fact = db.catalog().FindTable("Fact");
  ReferenceEvaluator ref(&db);
  VectorizedEngine vec(&db);

  WhereClause empty;
  auto a = ref.MatchRows(fact, empty);
  auto b = vec.MatchRows(fact, empty);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  WhereClause w;
  w.predicates.push_back(
      ValuePred(fact, 1, CompareOp::kEq, Value(int64_t{4})));
  a = ref.MatchRows(fact, w);
  b = vec.MatchRows(fact, w);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

// A subquery runs inside its parent's sample: one ExecuteSelect with an
// IN subquery adds exactly one vexec.select_ns sample and one
// vexec.select_queries count, not one per nested execution.
TEST(SelectMetricsTest, InSubqueryAddsOneSample) {
  Database db = BuildScoreStudentDb();
  const int score = db.catalog().FindTable("Score");
  const int student = db.catalog().FindTable("Student");
  SelectQuery q = SelectAll(score);
  Predicate in;
  in.kind = PredicateKind::kInSub;
  in.column = {score, 1};
  in.subquery = std::make_unique<SelectQuery>(SelectAll(student));
  in.subquery->where.predicates.push_back(
      ValuePred(student, 2, CompareOp::kEq, Value("F")));
  q.where.predicates.push_back(std::move(in));

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram& vec_ns = reg.GetHistogram("vexec.select_ns");
  obs::Counter& vec_queries = reg.GetCounter("vexec.select_queries");
  const uint64_t vec_before = vec_ns.count();
  const uint64_t queries_before = vec_queries.Value();
  auto a = ReferenceEvaluator(&db).ExecuteSelect(q, false);
  auto b = VectorizedEngine(&db).ExecuteSelect(q, false);
  obs::SetEnabled(was_enabled);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->cardinality, b->cardinality);
  EXPECT_EQ(vec_ns.count() - vec_before, 1u);
  EXPECT_EQ(vec_queries.Value() - queries_before, 1u);
}

// ------------------------------------------------------ GROUP BY keys

/// The cells whose GROUP BY equivalence classes are easy to get wrong.
/// Keys(id, d DOUBLE, i INT64, s STRING, a STRING, b STRING, v DOUBLE)
/// cycles each list over 60 rows, so every cell repeats; `a`/`b` cycle
/// together as fixed pairs. Other(id, w STRING) is never joined: a GROUP
/// BY on Other.w names a table outside the chain. Bundled datasets hold
/// no -0.0 or NaN, so only these tables reach those classes.
Database BuildGroupKeyDb() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> doubles = {
      Value(-0.0),
      Value(0.0),
      Value(nan),
      Value(-nan),
      Value(std::bit_cast<double>(uint64_t{0x7ff8000000000123})),  // payload
      Value(std::bit_cast<double>(uint64_t{0xfff8000000000456})),
      Value(inf),
      Value(-inf),
      Value(1e15 - 1),
      Value(1e15),
      Value(1e15 + 1),
      Value(3.0),
      Value(2.5),
      Value(0.1),
      Value::Null()};
  const std::vector<Value> ints = {
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(int64_t{0}),
      Value(int64_t{-1}),
      Value(int64_t{1}),
      Value::Null()};
  const std::vector<Value> strings = {
      Value("'"),    Value("''"),   Value("a'b"),  Value("\x1f"),
      Value("a\x1f"), Value(""),     Value("NULL"), Value::Null(),
      Value("x"),    Value("\x01"),
      Value(std::string("n\0x", 3)),  // differ after an embedded NUL
      Value(std::string("n\0y", 3))};
  const std::vector<std::pair<Value, Value>> pairs = {
      {Value("ab"), Value("c")},         {Value("a"), Value("bc")},
      {Value("a\x01"), Value("b")},      {Value("a"), Value("\x01" "b")},
      {Value(""), Value::Null()},        {Value::Null(), Value("")},
      {Value("'"), Value("'")},          {Value("''"), Value("")},
      {Value("a\x1f"), Value("b")},      {Value("a"), Value("\x1f" "b")}};

  Database db;
  {
    TableSchema s("Keys");
    LSG_CHECK_OK(s.AddColumn({"id", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"d", DataType::kDouble, false, true}));
    LSG_CHECK_OK(s.AddColumn({"i", DataType::kInt64, false, true}));
    LSG_CHECK_OK(s.AddColumn({"s", DataType::kString, false, true}));
    LSG_CHECK_OK(s.AddColumn({"a", DataType::kString, false, true}));
    LSG_CHECK_OK(s.AddColumn({"b", DataType::kString, false, true}));
    LSG_CHECK_OK(s.AddColumn({"v", DataType::kDouble, false, false}));
    Table t(std::move(s));
    for (size_t r = 0; r < 60; ++r) {
      LSG_CHECK_OK(t.AppendRow(
          {Value(static_cast<int64_t>(r)), doubles[r % doubles.size()],
           ints[r % ints.size()], strings[r % strings.size()],
           pairs[r % pairs.size()].first, pairs[r % pairs.size()].second,
           Value(static_cast<double>(r) * 0.25)}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  {
    TableSchema s("Other");
    LSG_CHECK_OK(s.AddColumn({"id", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"w", DataType::kString, false, false}));
    Table t(std::move(s));
    LSG_CHECK_OK(t.AppendRow({Value(int64_t{0}), Value("w0")}));
    LSG_CHECK_OK(t.AppendRow({Value(int64_t{1}), Value("w1")}));
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  return db;
}

TEST(VexecGroupKeyTest, EquivalenceClassesMatchReference) {
  Database db = BuildGroupKeyDb();
  const int keys = db.catalog().FindTable("Keys");
  const int other = db.catalog().FindTable("Other");
  const ColumnRef id{keys, 0}, d{keys, 1}, i{keys, 2}, s{keys, 3};
  const ColumnRef a{keys, 4}, b{keys, 5}, v{keys, 6}, w{other, 1};
  // GROUP BY lists and their group counts, derived from how GroupKeyOf
  // prints each cell: -0.0 = +0.0 and NaNs split by sign only (12 DOUBLE
  // classes out of 15 cells); every INT64 and STRING cell is its own
  // class (NULL apart from 0, the string 'NULL' and the empty string, and
  // strings that differ after an embedded NUL apart); quoting keeps the
  // two-column pairs apart; a column outside the chain is NULL throughout.
  const std::vector<std::pair<std::vector<ColumnRef>, uint64_t>> cases = {
      {{d}, 12},    {{i}, 6},       {{s}, 12},       {{a, b}, 10},
      {{b, a}, 10}, {{w}, 1},       {{w, i}, 6},     {{i, w}, 6},
      {{a}, 8},     {{d, i}, 30},   {{d, i, s}, 60}, {{s, d}, 60}};
  // HAVING variants: none; MIN(id) >= 1, which drops exactly the group of
  // row 0; SUM(v) > 20, a DOUBLE accumulation over each group.
  const std::vector<std::optional<HavingClause>> havings = {
      std::nullopt,
      HavingClause{AggFunc::kMin, id, CompareOp::kGe, Value(int64_t{1})},
      HavingClause{AggFunc::kSum, v, CompareOp::kGt, Value(20.0)}};
  for (const auto& [group_by, groups] : cases) {
    for (AggFunc agg : {AggFunc::kNone, AggFunc::kSum, AggFunc::kCount}) {
      for (size_t h = 0; h < havings.size(); ++h) {
        SelectQuery q;
        q.tables = {keys};
        SelectItem item;
        item.agg = agg;
        item.column = agg == AggFunc::kNone ? group_by[0] : v;
        q.items.push_back(item);
        q.group_by = group_by;
        q.having = havings[h];
        SCOPED_TRACE(RenderSelect(q, db.catalog()));
        ExpectSelectAgrees(db, q);
        auto rv = VectorizedEngine(&db).ExecuteSelect(q, false);
        ASSERT_TRUE(rv.ok());
        if (h == 0) {
          EXPECT_EQ(rv->cardinality, groups);
        } else if (h == 1) {
          EXPECT_EQ(rv->cardinality, groups - 1);
        }
      }
    }
  }
}

TEST(VexecGroupKeyTest, GroupsEmitInFirstAppearanceOrder) {
  // Keys 5, 3, 5, 1, 3, 9, 1, 5: groups 5, 3, 1, 9 in that order, each
  // aggregating its tuples in tuple order.
  Database db = BuildJoinDb(/*fact_keys=*/{5, 3, 5, 1, 3, 9, 1, 5},
                            /*dim_ids=*/{1, 3, 5, 9});
  const int fact = db.catalog().FindTable("Fact");
  SelectQuery q = SelectAll(fact, /*item_col=*/1);
  q.group_by.push_back({fact, 1});
  SelectQuery count = SelectAll(fact, /*item_col=*/0);
  count.items[0].agg = AggFunc::kCount;
  count.group_by.push_back({fact, 1});
  const std::vector<int64_t> want_keys = {5, 3, 1, 9};
  const std::vector<int64_t> want_counts = {3, 2, 2, 1};
  auto expect_order = [&](const auto& engine) {
    auto keys = engine.ExecuteSelect(q, true);
    auto counts = engine.ExecuteSelect(count, true);
    ASSERT_TRUE(keys.ok() && counts.ok());
    ASSERT_EQ(keys->first_column.size(), want_keys.size());
    ASSERT_EQ(counts->first_column.size(), want_counts.size());
    for (size_t g = 0; g < want_keys.size(); ++g) {
      EXPECT_EQ(keys->first_column[g].as_int(), want_keys[g]) << g;
      EXPECT_EQ(counts->first_column[g].as_int(), want_counts[g]) << g;
    }
  };
  {
    SCOPED_TRACE("reference");
    expect_order(ReferenceEvaluator(&db));
  }
  {
    SCOPED_TRACE("vectorized");
    expect_order(VectorizedEngine(&db));
  }
}

TEST(VexecGroupKeyTest, ManyGroupsAcrossBatches) {
  // 3 batches of tuples over 1500 distinct keys: the group table grows
  // several times and every group spans batches.
  std::vector<int64_t> keys(3 * kBatchSize);
  for (size_t t = 0; t < keys.size(); ++t) {
    keys[t] = static_cast<int64_t>((t * 7919) % 1500);
  }
  Database db = BuildJoinDb(keys, /*dim_ids=*/{0});
  const int fact = db.catalog().FindTable("Fact");
  SelectQuery q = SelectAll(fact, /*item_col=*/2);
  q.items[0].agg = AggFunc::kSum;
  q.group_by.push_back({fact, 1});
  ExpectSelectAgrees(db, q);
  VectorizedEngine vec(&db);
  auto r = vec.ExecuteSelect(q, false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cardinality, 1500u);
}

// ------------------------------------------------------------ count path

/// The count path's edge cases: Fact(id, key INT64 nullable, d DOUBLE
/// nullable) -> Dim(id, tag) on key, plus Other(id, w), which no FK edge
/// reaches. Fact rows 2 and 7 have NULL keys and rows 4, 8 and 11 key 9,
/// which no Dim row holds, so those five rows join nothing; Dim row 4
/// joins no Fact row. Fact.d holds +0.0 and -0.0 (one GROUP BY class),
/// NULLs, and 9.5 only on an unjoined row.
Database BuildCountDb() {
  Database db = BuildJoinDb(/*fact_keys=*/{}, /*dim_ids=*/{0, 1, 2, 3, 4});
  {
    const std::vector<int64_t> keys = {0, 1, kNull, 2, 9, 1,
                                       0, kNull, 9, 2, 3, 9};
    const std::vector<Value> d = {
        Value(0.0), Value(-0.0), Value::Null(), Value(1.5),
        Value(0.0), Value(-0.0), Value(2.5),    Value(1.5),
        Value(7.0), Value::Null(), Value(7.0),  Value(9.5)};
    TableSchema s("Fact2");
    LSG_CHECK_OK(s.AddColumn({"id", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"key", DataType::kInt64, false, true}));
    LSG_CHECK_OK(s.AddColumn({"d", DataType::kDouble, false, true}));
    Table t(std::move(s));
    for (size_t i = 0; i < keys.size(); ++i) {
      LSG_CHECK_OK(t.AppendRow(
          {Value(static_cast<int64_t>(i)),
           keys[i] == kNull ? Value::Null() : Value(keys[i]), d[i]}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  {
    TableSchema s("Other");
    LSG_CHECK_OK(s.AddColumn({"id", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"w", DataType::kString, false, false}));
    Table t(std::move(s));
    LSG_CHECK_OK(t.AppendRow({Value(int64_t{0}), Value("w0")}));
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  LSG_CHECK_OK(db.AddForeignKey({"Fact2", "key", "Dim", "id"}));
  return db;
}

TEST(VexecCountPathTest, UnfilteredStageOverTheCapIsOutOfRange) {
  // The WHERE keeps 2 tuples, but the cap applies to the unfiltered join
  // of n tuples: at cap n - 1 both engines refuse under both materialize
  // settings, at cap n both count 2 with rows_joined n. In the 1:N order
  // one probe's chain crosses the cap, in the N:1 order the running total.
  const size_t n = 3 * kBatchSize + 5;
  std::vector<int64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<int64_t>(i % 3);
  Database db = BuildJoinDb(keys, /*dim_ids=*/{0, 1, 2});
  const int dim = db.catalog().FindTable("Dim");
  const int fact = db.catalog().FindTable("Fact");
  for (const std::vector<int>& chain :
       {std::vector<int>{fact, dim}, std::vector<int>{dim, fact}}) {
    SelectQuery q = SelectAll(chain[0]);
    q.tables = chain;
    q.where.predicates.push_back(
        ValuePred(fact, 0, CompareOp::kLt, Value(int64_t{2})));
    for (uint64_t cap : {uint64_t{n - 1}, uint64_t{n}}) {
      SCOPED_TRACE(RenderSelect(q, db.catalog()) + " cap " +
                   std::to_string(cap));
      const VexecOptions opts{.max_intermediate_tuples = cap};
      ExpectSelectAgrees(db, q, opts);
      auto r = VectorizedEngine(&db, opts).ExecuteSelect(q, false);
      if (cap < n) {
        EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
      } else {
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->cardinality, 2u);
        EXPECT_EQ(r->stats.rows_joined, static_cast<double>(n));
      }
    }
  }
}

TEST(VexecCountPathTest, AggregateOverAnEmptyWhereIsOneRow) {
  Database db = BuildCountDb();
  const int fact = db.catalog().FindTable("Fact2");
  const int dim = db.catalog().FindTable("Dim");
  for (AggFunc agg : {AggFunc::kCount, AggFunc::kSum, AggFunc::kMax}) {
    SelectQuery q = SelectAll(fact, /*item_col=*/2);
    q.tables.push_back(dim);
    q.items[0].agg = agg;
    q.where.predicates.push_back(
        ValuePred(fact, 0, CompareOp::kGt, Value(int64_t{1000})));
    q.where.predicates.push_back(
        ValuePred(dim, 0, CompareOp::kLt, Value(int64_t{0})));
    q.where.connectors.push_back(BoolConn::kOr);
    SCOPED_TRACE(RenderSelect(q, db.catalog()));
    EXPECT_EQ(AgreedCount(db, q), 1u);
  }
}

TEST(VexecCountPathTest, PredicateOutsideTheChainIsFalse) {
  Database db = BuildCountDb();
  const int fact = db.catalog().FindTable("Fact2");
  const int dim = db.catalog().FindTable("Dim");
  const int other = db.catalog().FindTable("Other");
  auto query = [&](BoolConn conn) {
    SelectQuery q = SelectAll(fact);
    q.tables.push_back(dim);
    q.where.predicates.push_back(
        ValuePred(fact, 1, CompareOp::kEq, Value(int64_t{1})));
    q.where.predicates.push_back(
        ValuePred(other, 1, CompareOp::kEq, Value("w0")));
    q.where.connectors.push_back(conn);
    return q;
  };
  // Other.w = 'w0' holds on Other's only row, but Other is not joined.
  EXPECT_EQ(AgreedCount(db, query(BoolConn::kAnd)), 0u);
  EXPECT_EQ(AgreedCount(db, query(BoolConn::kOr)), 2u);  // Fact rows 1, 5
  SelectQuery grouped = query(BoolConn::kOr);
  grouped.group_by.push_back({dim, 1});
  EXPECT_EQ(AgreedCount(db, grouped), 1u);

  // EXISTS is a constant: true keeps the other predicate's tuples.
  for (const bool negated : {false, true}) {
    SelectQuery q = query(BoolConn::kAnd);
    q.where.predicates[1].kind = PredicateKind::kExistsSub;
    q.where.predicates[1].negated = negated;
    q.where.predicates[1].subquery =
        std::make_unique<SelectQuery>(SelectAll(other));
    EXPECT_EQ(AgreedCount(db, q), negated ? 0u : 2u);
  }
}

TEST(VexecCountPathTest, OneTableGroupByCountsOnlyJoinedRows) {
  Database db = BuildCountDb();
  const int fact = db.catalog().FindTable("Fact2");
  const int dim = db.catalog().FindTable("Dim");
  for (const std::vector<int>& chain :
       {std::vector<int>{fact, dim}, std::vector<int>{dim, fact}}) {
    auto grouped = [&](ColumnRef key) {
      SelectQuery q = SelectAll(chain[0]);
      q.tables = chain;
      q.group_by.push_back(key);
      return q;
    };
    SCOPED_TRACE(RenderSelect(grouped({fact, 2}), db.catalog()));
    // Joined rows 0 1 3 5 6 9 10: d classes {+0.0, -0.0}, 1.5, 2.5, NULL
    // and 7.0; the unjoined row's 9.5 must not count.
    EXPECT_EQ(AgreedCount(db, grouped({fact, 2})), 5u);
    // NULL keys never join, so key 9 and NULL are no groups.
    EXPECT_EQ(AgreedCount(db, grouped({fact, 1})), 4u);
    // Dim row 4 joins nothing.
    EXPECT_EQ(AgreedCount(db, grouped({dim, 1})), 4u);
    // AND across both tables: rows 3 5 6 9 survive (row 10's Dim id is 3).
    SelectQuery q = grouped({fact, 2});
    q.items[0].agg = AggFunc::kCount;
    q.where.predicates.push_back(
        ValuePred(fact, 0, CompareOp::kGe, Value(int64_t{3})));
    q.where.predicates.push_back(
        ValuePred(dim, 0, CompareOp::kLe, Value(int64_t{2})));
    q.where.connectors.push_back(BoolConn::kAnd);
    EXPECT_EQ(AgreedCount(db, q), 4u);
  }
}

TEST(VexecCountPathTest, SubqueryErrorAfterTheCountsIsTheReferences) {
  Database db = BuildCountDb();
  const int fact = db.catalog().FindTable("Fact2");
  const int dim = db.catalog().FindTable("Dim");
  const int other = db.catalog().FindTable("Other");
  // The outer join of 7 tuples passes a cap of 7; an IN subquery that joins
  // Dim to Other, which no edge reaches, fails with InvalidArgument, and
  // one that joins all of Fact2 to Dim (7 tuples) under a cap of 6 fails
  // with OutOfRange — in every count-path shape.
  struct Case {
    std::vector<int> sub_tables;
    uint64_t cap;
    StatusCode code;
  };
  for (const Case& c : {Case{{dim, other}, 7, StatusCode::kInvalidArgument},
                        Case{{fact, dim}, 6, StatusCode::kOutOfRange}}) {
    for (int shape = 0; shape < 3; ++shape) {
      SelectQuery q = SelectAll(c.code == StatusCode::kOutOfRange ? dim : fact);
      if (c.code != StatusCode::kOutOfRange) q.tables.push_back(dim);
      if (shape == 1) q.items[0].agg = AggFunc::kCount;
      if (shape == 2) q.group_by.push_back(q.items[0].column);
      Predicate in;
      in.kind = PredicateKind::kInSub;
      in.column = {dim, 0};
      in.subquery = std::make_unique<SelectQuery>(SelectAll(dim));
      in.subquery->tables = c.sub_tables;
      q.where.predicates.push_back(std::move(in));
      SCOPED_TRACE(RenderSelect(q, db.catalog()));
      const VexecOptions opts{.max_intermediate_tuples = c.cap};
      ExpectSelectAgrees(db, q, opts);
      auto r = VectorizedEngine(&db, opts).ExecuteSelect(q, false);
      EXPECT_EQ(r.status().code(), c.code);
    }
  }
}

// ------------------------------------------------------------ hash table

TEST(Int64JoinHashTableTest, DuplicatesChainInInsertionOrder) {
  vexec::Int64JoinHashTable ht(8);
  ht.Insert(42, 1);
  ht.Insert(7, 2);
  ht.Insert(42, 3);
  ht.Insert(42, 5);
  std::vector<uint32_t> rows;
  for (int32_t e = ht.Find(42); e >= 0; e = ht.Next(e)) {
    rows.push_back(ht.Row(e));
  }
  EXPECT_EQ(rows, (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_LT(ht.Find(999), 0);
}

TEST(Int64JoinHashTableTest, DenseModeMatchesSparseSemantics) {
  // Sequential-PK build sides take the direct-address mode; chain order
  // and miss behavior must be indistinguishable from the sparse table.
  EXPECT_TRUE(vexec::Int64JoinHashTable::DenseRangeUsable(100, 104, 5));
  EXPECT_FALSE(vexec::Int64JoinHashTable::DenseRangeUsable(0, 1 << 20, 5));
  vexec::Int64JoinHashTable dense(100, 104, 5);
  vexec::Int64JoinHashTable sparse(5);
  EXPECT_TRUE(dense.dense());
  EXPECT_FALSE(sparse.dense());
  for (auto* ht : {&dense, &sparse}) {
    ht->Insert(102, 1);
    ht->Insert(100, 2);
    ht->Insert(102, 3);
    ht->Insert(104, 4);
  }
  for (int64_t key : {99, 100, 101, 102, 103, 104, 105, 1000}) {
    std::vector<uint32_t> a, b;
    for (int32_t e = dense.Find(key); e >= 0; e = dense.Next(e)) {
      a.push_back(dense.Row(e));
    }
    for (int32_t e = sparse.Find(key); e >= 0; e = sparse.Next(e)) {
      b.push_back(sparse.Row(e));
    }
    EXPECT_EQ(a, b) << "key " << key;
  }
}

// ------------------------------------------------------ mutation testing
//
// The clean engine passes the lockstep oracle here; vexec_mutant_test.cc,
// built on the engine mutants in tests/mutants/, checks that each mutant
// fails it.

TEST(VexecMutationTest, CleanEnginePassesOracle) {
  Database db = BuildScoreStudentDb();
  const int score = db.catalog().FindTable("Score");
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>(SelectAll(score, /*item_col=*/3));
  ast.select->where.predicates.push_back(
      ValuePred(score, 3, CompareOp::kGe, Value(80.0)));
  DifferentialOracle oracle(&db);
  auto v = oracle.Check(ast);
  EXPECT_FALSE(v.has_value()) << v->oracle << ": " << v->detail;
}

// ------------------------------------- the reference's hand-pinned results

/// A(id, b_key) -> B(id, c_key) -> C(id, tag): A.b_key is 0 1 NULL 1 2 0,
/// B.c_key is 0 NULL 1 and C.tag is 'c0' 'c1'.
Database BuildChainDb() {
  Database db;
  auto add = [&](const char* name, const char* col1, DataType type1,
                 const std::vector<Value>& cells) {
    TableSchema s(name);
    LSG_CHECK_OK(s.AddColumn({"id", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({col1, type1, false, true}));
    Table t(std::move(s));
    for (size_t r = 0; r < cells.size(); ++r) {
      LSG_CHECK_OK(t.AppendRow({Value(static_cast<int64_t>(r)), cells[r]}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  };
  const Value null = Value::Null();
  add("C", "tag", DataType::kString, {Value("c0"), Value("c1")});
  add("B", "c_key", DataType::kInt64,
      {Value(int64_t{0}), null, Value(int64_t{1})});
  add("A", "b_key", DataType::kInt64,
      {Value(int64_t{0}), Value(int64_t{1}), null, Value(int64_t{1}),
       Value(int64_t{2}), Value(int64_t{0})});
  LSG_CHECK_OK(db.AddForeignKey({"A", "b_key", "B", "id"}));
  LSG_CHECK_OK(db.AddForeignKey({"B", "c_key", "C", "id"}));
  return db;
}

TEST(ReferenceEvaluatorTest, HandPinnedMetersOverAThreeTableChain) {
  // SELECT A.id FROM A, B, C
  //   WHERE A.b_key IN (SELECT B.id FROM B, C WHERE C.tag = 'c0')
  // Outer join: A ⋈ B keeps A rows 0 1 3 4 5 (A2's NULL key joins
  // nothing): 6 probed, 5 joined; ⋈ C keeps (A0 B0) (A4 B2) (A5 B0), B1's
  // NULL key joining nothing: 5 probed, 3 joined; 6 + 3 + 2 scanned. The
  // subquery, run once: B ⋈ C is (B0 C0) (B2 C1), 3 probed, 2 joined,
  // 3 + 2 scanned, and its WHERE keeps B0: one row, {0}. The IN keeps A0
  // and A5: two rows.
  Database db = BuildChainDb();
  const int a = db.catalog().FindTable("A");
  const int b = db.catalog().FindTable("B");
  const int c = db.catalog().FindTable("C");
  SelectQuery q = SelectAll(a);
  q.tables = {a, b, c};
  Predicate in;
  in.kind = PredicateKind::kInSub;
  in.column = {a, 1};
  in.subquery = std::make_unique<SelectQuery>(SelectAll(b));
  in.subquery->tables = {b, c};
  in.subquery->where.predicates.push_back(
      ValuePred(c, 1, CompareOp::kEq, Value("c0")));
  q.where.predicates.push_back(std::move(in));

  auto expect_pinned = [&](const auto& engine) {
    for (const bool materialize : {true, false}) {
      SCOPED_TRACE(materialize ? "materialized" : "count-only");
      auto r = engine.ExecuteSelect(q, materialize);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->cardinality, 2u);
      EXPECT_EQ(r->stats.rows_scanned, 11.0 + 5.0);
      EXPECT_EQ(r->stats.rows_probed, 6.0 + 5.0 + 3.0);
      EXPECT_EQ(r->stats.rows_joined, 5.0 + 3.0 + 2.0);
      EXPECT_EQ(r->stats.rows_output, 2.0 + 1.0);
      if (materialize) {
        ASSERT_EQ(r->first_column.size(), 2u);
        EXPECT_EQ(r->first_column[0].as_int(), 0);
        EXPECT_EQ(r->first_column[1].as_int(), 5);
      } else {
        EXPECT_TRUE(r->first_column.empty());
      }
    }
  };
  {
    SCOPED_TRACE("reference");
    expect_pinned(ReferenceEvaluator(&db));
  }
  {
    SCOPED_TRACE("vectorized");
    expect_pinned(VectorizedEngine(&db));
  }

  // A cap one below A ⋈ B's 5 tuples refuses the query in both; a cap of
  // 5 admits it.
  for (const bool materialize : {true, false}) {
    auto r = ReferenceEvaluator(&db, kRefWork, 4).ExecuteSelect(q, materialize);
    auto v = VectorizedEngine(&db, VexecOptions{.max_intermediate_tuples = 4})
                 .ExecuteSelect(q, materialize);
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(r.status().message(), "join intermediate exceeds limit");
    EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(v.status().message(), "join intermediate exceeds limit");
    EXPECT_TRUE(
        ReferenceEvaluator(&db, kRefWork, 5).ExecuteSelect(q, materialize).ok());
    EXPECT_TRUE(VectorizedEngine(&db, VexecOptions{.max_intermediate_tuples = 5})
                    .ExecuteSelect(q, materialize)
                    .ok());
  }
}

// ------------------------------------------------ the chain join rule

/// SELECT <first table's first column> FROM the named tables, in order.
SelectQuery ChainOf(const Catalog& cat, const std::vector<const char*>& names) {
  SelectQuery q = SelectAll(cat.FindTable(names[0]));
  q.tables.clear();
  for (const char* name : names) q.tables.push_back(cat.FindTable(name));
  return q;
}

TEST(ChainJoinRuleTest, TableOrderPicksTheJoinOnTpch) {
  // lineitem has an edge to both part and supplier; it joins the one
  // earlier in the chain, so one table set means two different joins.
  auto db = BuildNamedDatabase("tpch");
  ASSERT_TRUE(db.ok());
  const Catalog& cat = db->catalog();
  const SelectQuery by_part =
      ChainOf(cat, {"part", "partsupp", "supplier", "lineitem"});
  const SelectQuery by_supplier =
      ChainOf(cat, {"supplier", "partsupp", "part", "lineitem"});
  EXPECT_EQ(RenderSelect(by_part, cat),
            "SELECT part.p_partkey FROM part"
            " JOIN partsupp ON partsupp.ps_partkey = part.p_partkey"
            " JOIN supplier ON partsupp.ps_suppkey = supplier.s_suppkey"
            " JOIN lineitem ON lineitem.l_partkey = part.p_partkey");
  EXPECT_EQ(RenderSelect(by_supplier, cat),
            "SELECT supplier.s_suppkey FROM supplier"
            " JOIN partsupp ON partsupp.ps_suppkey = supplier.s_suppkey"
            " JOIN part ON partsupp.ps_partkey = part.p_partkey"
            " JOIN lineitem ON lineitem.l_suppkey = supplier.s_suppkey");

  auto expect_count = [](const auto& engine, const SelectQuery& q,
                         uint64_t want) {
    for (const bool materialize : {true, false}) {
      SCOPED_TRACE(materialize ? "materialized" : "count-only");
      auto r = engine.ExecuteSelect(q, materialize);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->cardinality, want);
    }
  };
  for (const auto& [q, want] :
       {std::pair{&by_part, uint64_t{5805}},
        std::pair{&by_supplier, uint64_t{17942}}}) {
    SCOPED_TRACE(RenderSelect(*q, cat));
    {
      SCOPED_TRACE("reference");
      expect_count(ReferenceEvaluator(&*db), *q, want);
    }
    {
      SCOPED_TRACE("vectorized");
      expect_count(VectorizedEngine(&*db), *q, want);
    }
  }
}

// ------------------------------------------------ work-meter regressions

TEST(ReferenceWorkMeterTest, BaseScanIsCharged) {
  Database db = BuildScoreStudentDb();  // Score has 30 rows
  const int score = db.catalog().FindTable("Score");
  SelectQuery q = SelectAll(score);
  ReferenceEvaluator tight(&db, /*max_work=*/10);
  auto r = tight.ExecuteSelect(q, true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  ReferenceEvaluator loose(&db, /*max_work=*/1 << 20);
  auto ok = loose.ExecuteSelect(q, true);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->cardinality, 30u);
}

TEST(ReferenceWorkMeterTest, EmptyWhereCountMatchingIsCharged) {
  Database db = BuildScoreStudentDb();
  const int score = db.catalog().FindTable("Score");
  QueryAst ast;
  ast.type = QueryType::kDelete;
  ast.del = std::make_unique<DeleteQuery>();
  ast.del->table_idx = score;  // empty WHERE: every row matches
  ReferenceEvaluator tight(&db, /*max_work=*/5);
  auto r = tight.Cardinality(ast);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  ReferenceEvaluator loose(&db, /*max_work=*/1 << 20);
  auto ok = loose.Cardinality(ast);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 30u);
}

TEST(ReferenceWorkMeterTest, GroupingIsCharged) {
  Database db = BuildScoreStudentDb();
  const int score = db.catalog().FindTable("Score");
  SelectQuery q = SelectAll(score, /*item_col=*/3);
  q.items[0].agg = AggFunc::kAvg;
  q.group_by.push_back({score, 2});
  // Budget covers the base scan (30) + empty-WHERE units (30) but not the
  // additional per-kept-tuple aggregation charge.
  ReferenceEvaluator tight(&db, /*max_work=*/60);
  auto r = tight.ExecuteSelect(q, true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExecStatsTest, AddSaturatesAtMaxRows) {
  ExecStats a;
  a.rows_scanned = ExecStats::kMaxRows - 1.0;
  ExecStats b;
  b.rows_scanned = ExecStats::kMaxRows;
  b.rows_joined = 5.0;
  a.Add(b);
  EXPECT_EQ(a.rows_scanned, ExecStats::kMaxRows);
  EXPECT_EQ(a.rows_joined, 5.0);
  EXPECT_EQ(ExecStats::Clamp(1e306), ExecStats::kMaxRows);
  EXPECT_EQ(ExecStats::Clamp(123.0), 123.0);
}

// ------------------------------------------------- differential sweeps

class VexecDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VexecDifferentialTest, MatchesReferenceOnBundledDataset) {
  auto db = BuildNamedDatabase(GetParam(), /*scale=*/0.05);
  ASSERT_TRUE(db.ok());
  VocabularyOptions vo;
  vo.values_per_column = 8;
  auto vocab = Vocabulary::Build(*db, vo);
  ASSERT_TRUE(vocab.ok());
  ReferenceEvaluator ref(&*db);
  VectorizedEngine serial(&*db);
  QueryProfile profile = QueryProfile::Full();
  GenerationFsm fsm(&*db, &*vocab, profile);
  Rng rng(77);
  const char* exhaustive = std::getenv("LSG_EXHAUSTIVE_VEXEC");
  const int episodes =
      exhaustive != nullptr && exhaustive[0] == '1' ? 2000 : 150;
  // Episodes past the reference's work budget are skipped, not compared;
  // more than 1% of them would leave the sweep checking too little.
  int skipped = 0;
  for (int i = 0; i < episodes; ++i) {
    auto ast = RandomWalkQuery(&fsm, &rng);
    ASSERT_TRUE(ast.ok());
    const std::string sql = RenderSql(*ast, db->catalog());
    auto a = ref.Cardinality(*ast);
    if (a.status().code() == StatusCode::kResourceExhausted) {
      ++skipped;
      continue;
    }
    auto sb = serial.Cardinality(*ast);
    ASSERT_EQ(a.ok(), sb.ok()) << sql;
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), StatusCode::kOutOfRange) << sql;
      EXPECT_EQ(a.status().message(), sb.status().message()) << sql;
      continue;
    }
    EXPECT_EQ(*a, *sb) << sql;
    if (ast->type == QueryType::kSelect) {
      SCOPED_TRACE(sql);
      ExpectSelectAgrees(*db, *ast->select);
    }
    if (ast->type == QueryType::kUpdate || ast->type == QueryType::kDelete) {
      const int t = ast->type == QueryType::kUpdate
                        ? ast->update->table_idx
                        : ast->del->table_idx;
      const WhereClause& w = ast->type == QueryType::kUpdate
                                 ? ast->update->where
                                 : ast->del->where;
      auto ma = ref.MatchRows(t, w);
      auto mb = serial.MatchRows(t, w);
      ASSERT_TRUE(ma.ok() && mb.ok()) << sql;
      EXPECT_EQ(*ma, *mb) << sql;
    }
  }
  std::printf("%s: %d of %d episodes skipped on the reference's budget\n",
              GetParam().c_str(), skipped, episodes);
  EXPECT_LE(skipped * 100, episodes)
      << skipped << " of " << episodes << " episodes skipped";
}

INSTANTIATE_TEST_SUITE_P(Datasets, VexecDifferentialTest,
                         ::testing::Values("score", "tpch", "job",
                                           "xuetang", "edge"));

}  // namespace
}  // namespace lsg
