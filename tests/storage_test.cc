#include <gtest/gtest.h>

#include "storage/column.h"
#include "storage/table.h"

namespace lsg {
namespace {

// ---------------------------------------------------------------- Column

TEST(ColumnTest, AppendAndGetInt) {
  Column c(DataType::kInt64);
  ASSERT_TRUE(c.Append(Value(int64_t{1})).ok());
  ASSERT_TRUE(c.Append(Value(int64_t{2})).ok());
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetValue(0).as_int(), 1);
  EXPECT_EQ(c.GetInt(1), 2);
}

TEST(ColumnTest, TypeMismatchRejected) {
  Column c(DataType::kInt64);
  EXPECT_FALSE(c.Append(Value("str")).ok());
  EXPECT_FALSE(c.Append(Value(1.5)).ok());
  Column s(DataType::kString);
  EXPECT_FALSE(s.Append(Value(int64_t{1})).ok());
}

TEST(ColumnTest, IntWidensIntoDoubleColumn) {
  Column c(DataType::kDouble);
  ASSERT_TRUE(c.Append(Value(int64_t{3})).ok());
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 3.0);
}

TEST(ColumnTest, Nulls) {
  Column c(DataType::kInt64);
  ASSERT_TRUE(c.Append(Value(int64_t{1})).ok());
  c.AppendNull();
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_EQ(c.CountNonNull(), 1u);
}

TEST(ColumnTest, DistinctValuesSortedAndUnique) {
  Column c(DataType::kInt64);
  for (int64_t v : {3, 1, 3, 2, 1}) ASSERT_TRUE(c.Append(Value(v)).ok());
  c.AppendNull();
  auto d = c.DistinctValues();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].as_int(), 1);
  EXPECT_EQ(d[1].as_int(), 2);
  EXPECT_EQ(d[2].as_int(), 3);
}

TEST(ColumnTest, FilterRows) {
  Column c(DataType::kString);
  for (const char* v : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(c.Append(Value(v)).ok());
  }
  c.FilterRows({true, false, true, false});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetString(0), "a");
  EXPECT_EQ(c.GetString(1), "c");
}

TEST(ColumnTest, CategoricalStoresStrings) {
  Column c(DataType::kCategorical);
  ASSERT_TRUE(c.Append(Value("M")).ok());
  EXPECT_EQ(c.GetValue(0).as_string(), "M");
}

// ---------------------------------------------------------------- Table

TableSchema MiniSchema() {
  TableSchema s("t");
  EXPECT_TRUE(s.AddColumn({"id", DataType::kInt64, true, false}).ok());
  EXPECT_TRUE(s.AddColumn({"v", DataType::kDouble, false, true}).ok());
  return s;
}

TEST(TableTest, AppendRows) {
  Table t(MiniSchema());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(1.5)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value::Null()}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetValue(0, 0).as_int(), 1);
  EXPECT_TRUE(t.GetValue(1, 1).is_null());
}

TEST(TableTest, ArityMismatchRejected) {
  Table t(MiniSchema());
  EXPECT_FALSE(t.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, NullInNonNullableRejected) {
  Table t(MiniSchema());
  EXPECT_FALSE(t.AppendRow({Value::Null(), Value(1.0)}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, DebugRowsRenders) {
  Table t(MiniSchema());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{9}), Value(0.5)}).ok());
  std::string s = t.DebugRows(5);
  EXPECT_NE(s.find("9"), std::string::npos);
}

// ---------------------------------------------------------------- Database

Database MiniDb() {
  Database db;
  {
    TableSchema s("a");
    EXPECT_TRUE(s.AddColumn({"id", DataType::kInt64, true, false}).ok());
    Table t(std::move(s));
    EXPECT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
    EXPECT_TRUE(db.AddTable(std::move(t)).ok());
  }
  {
    TableSchema s("b");
    EXPECT_TRUE(s.AddColumn({"id", DataType::kInt64, true, false}).ok());
    EXPECT_TRUE(s.AddColumn({"a_id", DataType::kInt64, false, false}).ok());
    Table t(std::move(s));
    EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(int64_t{1})}).ok());
    EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value(int64_t{1})}).ok());
    EXPECT_TRUE(db.AddTable(std::move(t)).ok());
  }
  return db;
}

TEST(DatabaseTest, AddAndFind) {
  Database db = MiniDb();
  EXPECT_EQ(db.num_tables(), 2u);
  EXPECT_NE(db.FindTable("a"), nullptr);
  EXPECT_NE(db.FindTable("b"), nullptr);
  EXPECT_EQ(db.FindTable("zzz"), nullptr);
  EXPECT_EQ(db.TotalRows(), 3u);
}

TEST(DatabaseTest, CatalogMirrorsTables) {
  Database db = MiniDb();
  EXPECT_EQ(db.catalog().num_tables(), 2u);
  EXPECT_EQ(db.catalog().FindTable("b"), 1);
}

TEST(DatabaseTest, ForeignKeyValidatedAgainstCatalog) {
  Database db = MiniDb();
  EXPECT_TRUE(db.AddForeignKey({"b", "a_id", "a", "id"}).ok());
  EXPECT_FALSE(db.AddForeignKey({"b", "nope", "a", "id"}).ok());
  EXPECT_TRUE(db.catalog().AreJoinable(0, 1));
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database db = MiniDb();
  TableSchema s("a");
  EXPECT_TRUE(s.AddColumn({"id", DataType::kInt64, true, false}).ok());
  EXPECT_EQ(db.AddTable(Table(std::move(s))).code(),
            StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, MutableTableLookup) {
  Database db = MiniDb();
  Table* t = db.FindMutableTable("a");
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->AppendRow({Value(int64_t{5})}).ok());
  EXPECT_EQ(db.FindTable("a")->num_rows(), 2u);
}

}  // namespace
}  // namespace lsg
