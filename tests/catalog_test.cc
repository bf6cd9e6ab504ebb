#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/data_type.h"
#include "catalog/schema.h"
#include "catalog/value.h"

namespace lsg {
namespace {

// ---------------------------------------------------------------- types

TEST(DataTypeTest, Names) {
  EXPECT_STREQ(DataTypeName(DataType::kInt64), "INT64");
  EXPECT_STREQ(DataTypeName(DataType::kDouble), "DOUBLE");
  EXPECT_STREQ(DataTypeName(DataType::kString), "STRING");
  EXPECT_STREQ(DataTypeName(DataType::kCategorical), "CATEGORICAL");
}

TEST(DataTypeTest, IsNumeric) {
  EXPECT_TRUE(IsNumeric(DataType::kInt64));
  EXPECT_TRUE(IsNumeric(DataType::kDouble));
  EXPECT_FALSE(IsNumeric(DataType::kString));
  EXPECT_FALSE(IsNumeric(DataType::kCategorical));
}

TEST(DataTypeTest, Comparability) {
  EXPECT_TRUE(AreComparable(DataType::kInt64, DataType::kDouble));
  EXPECT_TRUE(AreComparable(DataType::kString, DataType::kString));
  EXPECT_FALSE(AreComparable(DataType::kInt64, DataType::kString));
  EXPECT_FALSE(AreComparable(DataType::kCategorical, DataType::kString));
}

// ---------------------------------------------------------------- Value

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_numeric());
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(v.ToSqlLiteral(), "NULL");
}

TEST(ValueTest, IntBasics) {
  Value v(int64_t{42});
  EXPECT_TRUE(v.is_int());
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_DOUBLE_EQ(v.AsNumber(), 42.0);
  EXPECT_EQ(v.ToSqlLiteral(), "42");
}

TEST(ValueTest, DoubleBasics) {
  Value v(2.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_EQ(v.ToSqlLiteral(), "2.5");
}

TEST(ValueTest, StringEscaping) {
  Value v(std::string("o'brien"));
  EXPECT_EQ(v.ToSqlLiteral(), "'o''brien'");
  EXPECT_EQ(v.ToString(), "o'brien");
}

TEST(ValueTest, CompareNumericCrossType) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);
}

TEST(ValueTest, IntAndEqualDoubleHashAlike) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_TRUE(Value(int64_t{3}) == Value(3.0));
}

TEST(ValueTest, OperatorLess) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_FALSE(Value(int64_t{2}) < Value(int64_t{2}));
}

// ---------------------------------------------------------------- schema

TEST(TableSchemaTest, AddAndFind) {
  TableSchema s("t");
  EXPECT_TRUE(s.AddColumn({"a", DataType::kInt64, true, false}).ok());
  EXPECT_TRUE(s.AddColumn({"b", DataType::kString, false, true}).ok());
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.FindColumn("b"), 1);
  EXPECT_EQ(s.FindColumn("zzz"), -1);
  EXPECT_EQ(s.PrimaryKeyColumn(), 0);
}

TEST(TableSchemaTest, DuplicateColumnRejected) {
  TableSchema s("t");
  ASSERT_TRUE(s.AddColumn({"a", DataType::kInt64, false, false}).ok());
  EXPECT_EQ(s.AddColumn({"a", DataType::kDouble, false, false}).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableSchemaTest, NoPrimaryKey) {
  TableSchema s("t");
  ASSERT_TRUE(s.AddColumn({"a", DataType::kInt64, false, false}).ok());
  EXPECT_EQ(s.PrimaryKeyColumn(), -1);
}

TEST(TableSchemaTest, ToStringMentionsColumns) {
  TableSchema s("t");
  ASSERT_TRUE(s.AddColumn({"a", DataType::kInt64, true, false}).ok());
  std::string str = s.ToString();
  EXPECT_NE(str.find("t("), std::string::npos);
  EXPECT_NE(str.find("a INT64 PK"), std::string::npos);
}

// ---------------------------------------------------------------- catalog

Catalog TwoTableCatalog() {
  Catalog cat;
  TableSchema score("Score");
  EXPECT_TRUE(score.AddColumn({"ID", DataType::kInt64, true, false}).ok());
  EXPECT_TRUE(score.AddColumn({"StudentID", DataType::kInt64, false, false}).ok());
  EXPECT_TRUE(score.AddColumn({"Grade", DataType::kDouble, false, false}).ok());
  TableSchema student("Student");
  EXPECT_TRUE(student.AddColumn({"ID", DataType::kInt64, true, false}).ok());
  EXPECT_TRUE(student.AddColumn({"Name", DataType::kString, false, false}).ok());
  EXPECT_TRUE(cat.AddTable(std::move(score)).ok());
  EXPECT_TRUE(cat.AddTable(std::move(student)).ok());
  EXPECT_TRUE(
      cat.AddForeignKey({"Score", "StudentID", "Student", "ID"}).ok());
  return cat;
}

TEST(CatalogTest, FindTable) {
  Catalog cat = TwoTableCatalog();
  EXPECT_EQ(cat.num_tables(), 2u);
  EXPECT_EQ(cat.FindTable("Score"), 0);
  EXPECT_EQ(cat.FindTable("Student"), 1);
  EXPECT_EQ(cat.FindTable("Nope"), -1);
}

TEST(CatalogTest, DuplicateTableRejected) {
  Catalog cat = TwoTableCatalog();
  EXPECT_EQ(cat.AddTable(TableSchema("Score")).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, JoinableBothDirections) {
  Catalog cat = TwoTableCatalog();
  EXPECT_TRUE(cat.AreJoinable(0, 1));
  EXPECT_TRUE(cat.AreJoinable(1, 0));
  EXPECT_FALSE(cat.AreJoinable(0, 0));
}

// ------------------------------------------------ the chain join rule

/// Hub(name, note, id) with three fact tables: Left and Right each reference
/// Hub twice (first through h1, then h2), and Right also references Left.
/// The Right -> Left edge is declared before Right's Hub edges. No two
/// columns an edge joins share a column index, so a swapped probe and
/// build column shows.
Catalog ChainCatalog() {
  Catalog cat;
  TableSchema hub("Hub");
  EXPECT_TRUE(hub.AddColumn({"name", DataType::kString, false, false}).ok());
  EXPECT_TRUE(hub.AddColumn({"note", DataType::kString, false, false}).ok());
  EXPECT_TRUE(hub.AddColumn({"id", DataType::kInt64, true, false}).ok());
  TableSchema left("Left");
  EXPECT_TRUE(left.AddColumn({"id", DataType::kInt64, true, false}).ok());
  EXPECT_TRUE(left.AddColumn({"h1", DataType::kInt64, false, false}).ok());
  EXPECT_TRUE(left.AddColumn({"h2", DataType::kInt64, false, false}).ok());
  TableSchema right("Right");
  EXPECT_TRUE(right.AddColumn({"h1", DataType::kInt64, false, false}).ok());
  EXPECT_TRUE(right.AddColumn({"h2", DataType::kInt64, false, false}).ok());
  EXPECT_TRUE(right.AddColumn({"left_id", DataType::kInt64, false, false}).ok());
  TableSchema lone("Lone");
  EXPECT_TRUE(lone.AddColumn({"id", DataType::kInt64, true, false}).ok());
  for (TableSchema* t : {&hub, &left, &right, &lone}) {
    EXPECT_TRUE(cat.AddTable(std::move(*t)).ok());
  }
  EXPECT_TRUE(cat.AddForeignKey({"Left", "h1", "Hub", "id"}).ok());
  EXPECT_TRUE(cat.AddForeignKey({"Left", "h2", "Hub", "id"}).ok());
  EXPECT_TRUE(cat.AddForeignKey({"Right", "left_id", "Left", "id"}).ok());
  EXPECT_TRUE(cat.AddForeignKey({"Right", "h1", "Hub", "id"}).ok());
  EXPECT_TRUE(cat.AddForeignKey({"Right", "h2", "Hub", "id"}).ok());
  return cat;
}

constexpr int kHub = 0, kLeft = 1, kRight = 2, kLone = 3;

TEST(ChainJoinTest, FirstChainTableInChainOrderWins) {
  Catalog cat = ChainCatalog();
  // Right has edges to both Hub and Left; the earlier chain position wins,
  // whichever edge was declared first.
  auto hub_first = cat.JoinIntoChain({kHub, kLeft, kRight}, 2);
  ASSERT_TRUE(hub_first.has_value());
  EXPECT_EQ(hub_first->probe_pos, 0u);
  EXPECT_EQ(hub_first->fk, &cat.foreign_keys()[3]);
  auto left_first = cat.JoinIntoChain({kLeft, kHub, kRight}, 2);
  ASSERT_TRUE(left_first.has_value());
  EXPECT_EQ(left_first->probe_pos, 0u);
  EXPECT_EQ(left_first->fk, &cat.foreign_keys()[2]);
}

TEST(ChainJoinTest, FirstDeclaredEdgeOfAPairWins) {
  Catalog cat = ChainCatalog();
  auto j = cat.JoinIntoChain({kHub, kLeft}, 1);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->fk, &cat.foreign_keys()[0]);
  EXPECT_EQ(j->build_col, cat.table(kLeft).FindColumn("h1"));
  auto r = cat.JoinIntoChain({kHub, kRight}, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->fk, &cat.foreign_keys()[3]);
  EXPECT_EQ(r->build_col, cat.table(kRight).FindColumn("h1"));
}

TEST(ChainJoinTest, ProbeAndBuildColumnsAreOriented) {
  Catalog cat = ChainCatalog();
  // The joined table is the FK side: it builds on the FK column and
  // probes the chain's PK.
  auto fk_side = cat.JoinIntoChain({kHub, kLeft}, 1);
  ASSERT_TRUE(fk_side.has_value());
  EXPECT_EQ(fk_side->probe_pos, 0u);
  EXPECT_EQ(fk_side->probe_col, cat.table(kHub).FindColumn("id"));
  EXPECT_EQ(fk_side->build_col, cat.table(kLeft).FindColumn("h1"));
  // The joined table is the PK side: the other way round.
  auto pk_side = cat.JoinIntoChain({kLeft, kHub}, 1);
  ASSERT_TRUE(pk_side.has_value());
  EXPECT_EQ(pk_side->probe_pos, 0u);
  EXPECT_EQ(pk_side->probe_col, cat.table(kLeft).FindColumn("h1"));
  EXPECT_EQ(pk_side->build_col, cat.table(kHub).FindColumn("id"));
}

TEST(ChainJoinTest, NoEdgeIsNullopt) {
  Catalog cat = ChainCatalog();
  EXPECT_FALSE(cat.JoinIntoChain({kHub, kLone}, 1).has_value());
  EXPECT_FALSE(cat.JoinIntoChain({kLone, kLeft, kHub}, 1).has_value());
  EXPECT_FALSE(cat.JoinIntoChain({kHub}, 0).has_value());
  EXPECT_FALSE(cat.AreJoinable(kHub, kLone));
  EXPECT_TRUE(cat.AreJoinable(kRight, kLeft));
}

TEST(CatalogTest, ForeignKeyUnknownTableRejected) {
  Catalog cat = TwoTableCatalog();
  EXPECT_EQ(cat.AddForeignKey({"Nope", "x", "Student", "ID"}).code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, ForeignKeyUnknownColumnRejected) {
  Catalog cat = TwoTableCatalog();
  EXPECT_EQ(cat.AddForeignKey({"Score", "nope", "Student", "ID"}).code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, ForeignKeyTypeMismatchRejected) {
  Catalog cat = TwoTableCatalog();
  // Name is STRING, StudentID is INT64: not comparable.
  EXPECT_EQ(cat.AddForeignKey({"Score", "StudentID", "Student", "Name"}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lsg
