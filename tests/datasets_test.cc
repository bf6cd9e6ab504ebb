#include <gtest/gtest.h>

#include <limits>
#include <unordered_set>

#include "datasets/job_like.h"
#include "datasets/tpch_like.h"
#include "datasets/xuetang_like.h"

namespace lsg {
namespace {

Database BuildByIndex(int idx, DatasetScale scale = DatasetScale()) {
  switch (idx) {
    case 0:
      return BuildTpchLike(scale);
    case 1:
      return BuildJobLike(scale);
    default:
      return BuildXuetangLike(scale);
  }
}

bool Joinable(const Database& db, const char* a, const char* b) {
  const Catalog& cat = db.catalog();
  return cat.AreJoinable(cat.FindTable(a), cat.FindTable(b));
}

const char* DatasetName(int idx) {
  switch (idx) {
    case 0:
      return "tpch";
    case 1:
      return "job";
    default:
      return "xuetang";
  }
}

TEST(TpchLikeTest, TableTopology) {
  Database db = BuildTpchLike();
  EXPECT_EQ(db.num_tables(), 8u);  // the TPC-H table count
  for (const char* name :
       {"region", "nation", "supplier", "customer", "part", "partsupp",
        "orders", "lineitem"}) {
    EXPECT_NE(db.FindTable(name), nullptr) << name;
  }
  EXPECT_TRUE(Joinable(db, "lineitem", "orders"));
  EXPECT_TRUE(Joinable(db, "orders", "customer"));
  EXPECT_TRUE(Joinable(db, "nation", "region"));
  EXPECT_FALSE(Joinable(db, "customer", "part"));
}

TEST(JobLikeTest, TableTopology) {
  Database db = BuildJobLike();
  EXPECT_EQ(db.num_tables(), 21u);  // the JOB/IMDB table count
  EXPECT_TRUE(Joinable(db, "cast_info", "title"));
  EXPECT_TRUE(Joinable(db, "cast_info", "name"));
  EXPECT_TRUE(Joinable(db, "movie_keyword", "keyword"));
  EXPECT_FALSE(Joinable(db, "keyword", "company_name"));
}

TEST(XuetangLikeTest, TableTopology) {
  Database db = BuildXuetangLike();
  EXPECT_EQ(db.num_tables(), 14u);  // the XueTang table count
  EXPECT_TRUE(Joinable(db, "enrollment", "users"));
  EXPECT_TRUE(Joinable(db, "enrollment", "course"));
  EXPECT_TRUE(Joinable(db, "forum_post", "forum_thread"));
  EXPECT_FALSE(Joinable(db, "video", "exam"));
}

class DatasetProperty : public ::testing::TestWithParam<int> {};

TEST_P(DatasetProperty, NonEmptyTables) {
  Database db = BuildByIndex(GetParam());
  for (const Table& t : db.tables()) {
    EXPECT_GT(t.num_rows(), 0u) << t.name();
  }
  EXPECT_GT(db.TotalRows(), 1000u);
}

TEST_P(DatasetProperty, ForeignKeyIntegrity) {
  // Every FK value must exist in the referenced PK column — otherwise the
  // FK join graph the FSM relies on would silently drop rows.
  Database db = BuildByIndex(GetParam());
  const Catalog& cat = db.catalog();
  for (const ForeignKey& fk : cat.foreign_keys()) {
    const Table* from = db.FindTable(fk.from_table);
    const Table* to = db.FindTable(fk.to_table);
    ASSERT_NE(from, nullptr);
    ASSERT_NE(to, nullptr);
    int fc = from->schema().FindColumn(fk.from_column);
    int tc = to->schema().FindColumn(fk.to_column);
    ASSERT_GE(fc, 0);
    ASSERT_GE(tc, 0);
    std::unordered_set<Value, ValueHash> keys;
    for (size_t r = 0; r < to->num_rows(); ++r) {
      keys.insert(to->GetValue(r, tc));
    }
    size_t misses = 0;
    for (size_t r = 0; r < from->num_rows(); ++r) {
      Value v = from->GetValue(r, fc);
      if (!v.is_null() && keys.count(v) == 0) ++misses;
    }
    EXPECT_EQ(misses, 0u) << DatasetName(GetParam()) << ": " << fk.from_table
                          << "." << fk.from_column << " -> " << fk.to_table;
  }
}

TEST_P(DatasetProperty, PrimaryKeysUnique) {
  Database db = BuildByIndex(GetParam());
  for (const Table& t : db.tables()) {
    int pk = t.schema().PrimaryKeyColumn();
    if (pk < 0) continue;
    std::unordered_set<Value, ValueHash> seen;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_TRUE(seen.insert(t.GetValue(r, pk)).second)
          << t.name() << " row " << r;
    }
  }
}

TEST_P(DatasetProperty, DeterministicAcrossBuilds) {
  Database a = BuildByIndex(GetParam());
  Database b = BuildByIndex(GetParam());
  ASSERT_EQ(a.num_tables(), b.num_tables());
  for (size_t ti = 0; ti < a.num_tables(); ++ti) {
    const Table& ta = a.tables()[ti];
    const Table& tb = b.tables()[ti];
    ASSERT_EQ(ta.num_rows(), tb.num_rows()) << ta.name();
    // Spot-check a scattering of cells.
    for (size_t r = 0; r < ta.num_rows(); r += 97) {
      for (size_t c = 0; c < ta.num_columns(); ++c) {
        EXPECT_EQ(ta.GetValue(r, c).Compare(tb.GetValue(r, c)), 0)
            << ta.name() << "[" << r << "," << c << "]";
      }
    }
  }
}

TEST_P(DatasetProperty, ScaleFactorGrowsFactTables) {
  DatasetScale small;
  small.factor = 0.5;
  DatasetScale big;
  big.factor = 2.0;
  Database s = BuildByIndex(GetParam(), small);
  Database b = BuildByIndex(GetParam(), big);
  EXPECT_GT(b.TotalRows(), s.TotalRows() * 2);
}

TEST_P(DatasetProperty, RowScaleOneIsBitIdenticalToDefault) {
  // The execution-grounded training path builds its scaled databases via
  // DatasetScale::RowScale; at 1.0 it must reproduce the default-scale
  // datasets cell for cell.
  Database a = BuildByIndex(GetParam());
  Database b = BuildByIndex(GetParam(), DatasetScale::RowScale(1.0));
  ASSERT_EQ(a.num_tables(), b.num_tables());
  for (size_t ti = 0; ti < a.num_tables(); ++ti) {
    const Table& ta = a.tables()[ti];
    const Table& tb = b.tables()[ti];
    ASSERT_EQ(ta.num_rows(), tb.num_rows()) << ta.name();
    for (size_t r = 0; r < ta.num_rows(); ++r) {
      for (size_t c = 0; c < ta.num_columns(); ++c) {
        const Value va = ta.GetValue(r, c);
        const Value vb = tb.GetValue(r, c);
        ASSERT_EQ(va.is_null(), vb.is_null())
            << ta.name() << "[" << r << "," << c << "]";
        if (!va.is_null()) {
          ASSERT_EQ(va.Compare(vb), 0)
              << ta.name() << "[" << r << "," << c << "]";
        }
      }
    }
  }
}

TEST(DatasetScaleTest, RowsClampsAndSaturates) {
  DatasetScale s;
  EXPECT_EQ(s.Rows(1000), 1000);  // factor 1.0 is exact
  s.factor = 0.0;
  EXPECT_EQ(s.Rows(1000), 2);  // floor
  s.factor = -3.0;
  EXPECT_EQ(s.Rows(1000), 2);
  s.factor = 1e12;  // would overflow the int cast without the clamp
  EXPECT_EQ(s.Rows(1000), DatasetScale::kMaxRowsPerTable);
  s.factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(s.Rows(1000), 2);
  s.factor = 100.0;
  EXPECT_EQ(s.Rows(3000), 300000);  // lineitem at 100x: 3*10^5 rows
  EXPECT_EQ(DatasetScale::RowScale(2.5).Rows(1000), 2500);
  EXPECT_EQ(DatasetScale::RowScale(1.0).seed, DatasetScale().seed);
}

TEST_P(DatasetProperty, EveryTableReachableInJoinGraph) {
  // The FK graph must be connected enough for the FSM: every table has at
  // least one joinable partner (no isolated tables).
  Database db = BuildByIndex(GetParam());
  const Catalog& cat = db.catalog();
  for (size_t ti = 0; ti < cat.num_tables(); ++ti) {
    bool joinable = false;
    for (size_t tj = 0; tj < cat.num_tables(); ++tj) {
      joinable = joinable || cat.AreJoinable(static_cast<int>(ti),
                                             static_cast<int>(tj));
    }
    EXPECT_TRUE(joinable) << cat.table(ti).name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetProperty,
                         ::testing::Range(0, 3));

}  // namespace
}  // namespace lsg
