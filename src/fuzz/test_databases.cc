#include "fuzz/test_databases.h"

#include "common/logging.h"
#include "datasets/job_like.h"
#include "datasets/tpch_like.h"
#include "datasets/xuetang_like.h"

namespace lsg {

Database BuildScoreStudentDb() {
  Database db;
  {
    TableSchema s("Student");
    LSG_CHECK_OK(s.AddColumn({"ID", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"Name", DataType::kString, false, false}));
    LSG_CHECK_OK(s.AddColumn({"Gender", DataType::kCategorical, false, false}));
    Table t(std::move(s));
    const char* names[] = {"Ada", "Bob", "Cat", "Dan", "Eve",
                           "Fay", "Gus", "Hal", "Ivy", "Joe"};
    for (int i = 0; i < 10; ++i) {
      LSG_CHECK_OK(t.AppendRow({Value(int64_t{i}), Value(names[i]),
                                Value(i % 2 == 0 ? "F" : "M")}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  {
    TableSchema s("Score");
    LSG_CHECK_OK(s.AddColumn({"SID", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"ID", DataType::kInt64, false, false}));
    LSG_CHECK_OK(s.AddColumn({"Course", DataType::kCategorical, false, false}));
    LSG_CHECK_OK(s.AddColumn({"Grade", DataType::kDouble, false, false}));
    Table t(std::move(s));
    // 30 rows: student i has 3 scores, grades 60 + (row % 41).
    const char* courses[] = {"math", "db", "ml"};
    for (int i = 0; i < 30; ++i) {
      LSG_CHECK_OK(t.AppendRow({Value(int64_t{i}), Value(int64_t{i % 10}),
                                Value(courses[i % 3]),
                                Value(60.0 + (i * 7) % 41)}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  LSG_CHECK_OK(db.AddForeignKey({"Score", "ID", "Student", "ID"}));
  return db;
}

namespace {

// The execution edge cases the other bundled databases never reach:
// Dept(6) <- Emp(30) <- Proj(20), whose FK columns Emp.DeptID and
// Proj.EmpID are nullable and hold NULLs, and whose DOUBLE columns hold
// both -0.0 and +0.0. Deterministic contents, like BuildScoreStudentDb.
Database BuildEdgeCaseDb() {
  Database db;
  // Signed zeros: -0.0 and +0.0 compare equal, so they are one GROUP BY key.
  const double kSigned[] = {0.0, -0.0, 1.5, -0.0, 2.5, 0.0, -1.5};
  {
    TableSchema s("Dept");
    LSG_CHECK_OK(s.AddColumn({"ID", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"Region", DataType::kCategorical, false, false}));
    LSG_CHECK_OK(s.AddColumn({"Budget", DataType::kDouble, false, false}));
    Table t(std::move(s));
    for (int i = 0; i < 6; ++i) {
      LSG_CHECK_OK(t.AppendRow({Value(int64_t{i}),
                                Value(i % 2 == 0 ? "N" : "S"),
                                Value(kSigned[i % 7])}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  {
    TableSchema s("Emp");
    LSG_CHECK_OK(s.AddColumn({"EID", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"DeptID", DataType::kInt64, false, true}));
    LSG_CHECK_OK(s.AddColumn({"Level", DataType::kCategorical, false, false}));
    LSG_CHECK_OK(s.AddColumn({"Bonus", DataType::kDouble, false, false}));
    Table t(std::move(s));
    // A NULL DeptID is stored as 0 under its validity bit, and Dept 0
    // exists: a join that ignored the bit would match it.
    const char* levels[] = {"junior", "senior", "lead"};
    for (int i = 0; i < 30; ++i) {
      const Value dept = i % 4 == 3 ? Value::Null() : Value(int64_t{i % 6});
      LSG_CHECK_OK(t.AppendRow({Value(int64_t{i}), dept, Value(levels[i % 3]),
                                Value(kSigned[(i * 3) % 7])}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  {
    TableSchema s("Proj");
    LSG_CHECK_OK(s.AddColumn({"PID", DataType::kInt64, true, false}));
    LSG_CHECK_OK(s.AddColumn({"EmpID", DataType::kInt64, false, true}));
    LSG_CHECK_OK(s.AddColumn({"Hours", DataType::kDouble, false, false}));
    Table t(std::move(s));
    for (int i = 0; i < 20; ++i) {
      const Value emp =
          i % 5 == 2 ? Value::Null() : Value(int64_t{(i * 7) % 30});
      LSG_CHECK_OK(t.AppendRow(
          {Value(int64_t{i}), emp, Value(kSigned[(i * 5) % 7] * 4.0)}));
    }
    LSG_CHECK_OK(db.AddTable(std::move(t)));
  }
  LSG_CHECK_OK(db.AddForeignKey({"Emp", "DeptID", "Dept", "ID"}));
  LSG_CHECK_OK(db.AddForeignKey({"Proj", "EmpID", "Emp", "EID"}));
  return db;
}

}  // namespace

const std::vector<std::string>& FuzzDatasetNames() {
  static const std::vector<std::string> kNames = {"score", "tpch", "job",
                                                  "xuetang", "edge"};
  return kNames;
}

StatusOr<Database> BuildNamedDatabase(const std::string& name, double scale) {
  DatasetScale s;
  s.factor = scale;
  if (name == "score") return BuildScoreStudentDb();
  if (name == "edge") return BuildEdgeCaseDb();
  if (name == "tpch" || name == "TPC-H") return BuildTpchLike(s);
  if (name == "job" || name == "JOB") return BuildJobLike(s);
  if (name == "xuetang" || name == "XueTang") return BuildXuetangLike(s);
  return Status::InvalidArgument("unknown dataset: " + name);
}

}  // namespace lsg
