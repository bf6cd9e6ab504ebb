// Vectorized-execution throughput bench: the serial columnar batch engine
// (src/vexec/) on the bundled datasets at 1x / 100x / 1000x row scale.
// Each setting runs a fixed representative query mix — filtered scans, an
// FK hash join, and a join + GROUP BY on a string column, a DOUBLE column
// and two columns — built generically from the dataset's catalog so all
// three benchmarks exercise the same shapes. Correctness is the
// differential tests' and the fuzz oracle's job (the nested-loop
// reference evaluator is quadratic, far too slow to time here).
//
// Each row is the median of `reps` timed runs after one untimed warm-up
// (LSG_QUICK=1: 3 runs, and no 1000x point). Emitted as one JSON row per
// (dataset, scale, query):
//
//   {"bench": "vexec_throughput", "dataset": "TPC-H", "row_scale": 100, ...}
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace bench {
namespace {

struct BenchQuery {
  std::string name;
  SelectQuery q;
};

int LargestTableIdx(const Database& db) {
  int best = 0;
  for (size_t i = 1; i < db.num_tables(); ++i) {
    if (db.tables()[i].num_rows() > db.tables()[best].num_rows()) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// First non-PK INT64 column of `t` (PK as fallback): the filter target.
int FilterColumn(const Table& t) {
  int pk = t.schema().PrimaryKeyColumn();
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().column(c).type == DataType::kInt64 &&
        static_cast<int>(c) != pk) {
      return static_cast<int>(c);
    }
  }
  return pk >= 0 ? pk : 0;
}

/// A non-null probe value drawn from `frac` of the way through the column,
/// so comparison predicates get mid-range selectivity instead of matching
/// nothing or everything.
Value ProbeValue(const Table& t, int col, double frac) {
  size_t start = static_cast<size_t>(static_cast<double>(t.num_rows()) * frac);
  for (size_t r = start; r < t.num_rows(); ++r) {
    Value v = t.GetValue(r, col);
    if (!v.is_null()) return v;
  }
  return Value(static_cast<int64_t>(0));
}

Predicate ValuePred(int table_idx, int column_idx, CompareOp op, Value v) {
  Predicate p;
  p.kind = PredicateKind::kValue;
  p.column = ColumnRef{table_idx, column_idx};
  p.op = op;
  p.value = std::move(v);
  return p;
}

/// The FK edge whose referencing (fact) side is largest — the most
/// join-work per probe the dataset offers.
const ForeignKey* BiggestFkEdge(const Database& db) {
  const ForeignKey* best = nullptr;
  size_t best_rows = 0;
  for (const ForeignKey& fk : db.catalog().foreign_keys()) {
    const Table* from = db.FindTable(fk.from_table);
    if (from != nullptr && from->num_rows() > best_rows) {
      best_rows = from->num_rows();
      best = &fk;
    }
  }
  return best;
}

/// First string-ish column (group-by target), any column as fallback.
int GroupColumn(const Table& t) {
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    DataType ty = t.schema().column(c).type;
    if (ty == DataType::kString || ty == DataType::kCategorical) {
      return static_cast<int>(c);
    }
  }
  return 0;
}

/// First DOUBLE column of `t`, or -1 when it has none.
int DoubleColumn(const Table& t) {
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().column(c).type == DataType::kDouble) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

/// The representative mix, built from the catalog: two filtered scans over
/// the largest table, the biggest FK hash join, and that join grouped on a
/// string column, on a DOUBLE column, and on two columns.
std::vector<BenchQuery> BuildQueries(const Database& db) {
  std::vector<BenchQuery> out;
  const int big = LargestTableIdx(db);
  const Table& bt = db.tables()[big];
  const int fc = FilterColumn(bt);

  {
    BenchQuery b;
    b.name = "scan_filter";
    b.q.tables = {big};
    b.q.items = {SelectItem{AggFunc::kNone, ColumnRef{big, 0}}};
    b.q.where.predicates.push_back(
        ValuePred(big, fc, CompareOp::kLe, ProbeValue(bt, fc, 0.5)));
    out.push_back(std::move(b));
  }
  {
    // Two conjunctive predicates: amplifies per-row interpretation
    // overhead in the reference engine vs one typed kernel pass each.
    BenchQuery b;
    b.name = "scan_filter2";
    b.q.tables = {big};
    b.q.items = {SelectItem{AggFunc::kNone, ColumnRef{big, 0}}};
    b.q.where.predicates.push_back(
        ValuePred(big, fc, CompareOp::kLe, ProbeValue(bt, fc, 0.75)));
    b.q.where.predicates.push_back(
        ValuePred(big, fc, CompareOp::kGt, ProbeValue(bt, fc, 0.25)));
    b.q.where.connectors = {BoolConn::kAnd};
    out.push_back(std::move(b));
  }

  const ForeignKey* fk = BiggestFkEdge(db);
  if (fk != nullptr) {
    const int from = db.catalog().FindTable(fk->from_table);
    const int to = db.catalog().FindTable(fk->to_table);
    {
      BenchQuery b;
      b.name = "fk_join";
      b.q.tables = {from, to};
      b.q.items = {SelectItem{AggFunc::kNone, ColumnRef{from, 0}}};
      out.push_back(std::move(b));
    }
    const ColumnRef str_col{to, GroupColumn(db.tables()[to])};
    const ColumnRef int_col{from, FilterColumn(db.tables()[from])};
    const int dc = DoubleColumn(db.tables()[to]);
    std::vector<std::pair<std::string, std::vector<ColumnRef>>> groupings = {
        {"join_group", {str_col}}, {"join_group2", {str_col, int_col}}};
    if (dc >= 0) groupings.push_back({"join_group_double", {{to, dc}}});
    for (auto& [name, group_by] : groupings) {
      BenchQuery b;
      b.name = name;
      b.q.tables = {from, to};
      b.q.items = {SelectItem{AggFunc::kCount, ColumnRef{from, 0}}};
      b.q.group_by = std::move(group_by);
      out.push_back(std::move(b));
    }
  }
  return out;
}

struct Timing {
  double ns_per_query = 0;
  uint64_t cardinality = 0;
};

/// One untimed warm-up run, then `reps` individually timed runs; reports
/// the median, so one cold or preempted run cannot move a row.
Timing TimeEngine(const vexec::VectorizedEngine& eng, const std::string& name,
                  const SelectQuery& q, int reps) {
  Timing t;
  std::vector<double> ns;
  for (int i = 0; i <= reps; ++i) {
    Stopwatch sw;
    // materialize=false is the execution-grounded feedback configuration:
    // training consumes the true cardinality, not the value column. The
    // engine answers scan_filter, scan_filter2, fk_join, join_group and
    // join_group_double on its count path (per-key join counts, no
    // tuples), and join_group2, whose keys span both tables, on its build
    // path.
    auto r = eng.ExecuteSelect(q, /*materialize_first_column=*/false);
    LSG_CHECK(r.ok()) << name << ": " << r.status().ToString();
    t.cardinality = r->cardinality;
    if (i > 0) ns.push_back(sw.ElapsedSeconds() * 1e9);
  }
  std::sort(ns.begin(), ns.end());
  const size_t mid = ns.size() / 2;
  t.ns_per_query =
      ns.size() % 2 == 1 ? ns[mid] : 0.5 * (ns[mid - 1] + ns[mid]);
  return t;
}

void EmitRow(JsonRowWriter* json, const std::string& dataset,
             double row_scale, size_t total_rows, const std::string& query,
             int reps, const Timing& t) {
  std::string row = StrFormat(
      "{\"bench\": \"vexec_throughput\", \"dataset\": \"%s\", "
      "\"row_scale\": %.0f, \"total_rows\": %zu, \"query\": \"%s\", "
      "\"reps\": %d, \"ns_per_query\": %.0f, \"cardinality\": %llu}",
      dataset.c_str(), row_scale, total_rows, query.c_str(), reps,
      t.ns_per_query, static_cast<unsigned long long>(t.cardinality));
  std::printf("%s\n", row.c_str());
  std::fflush(stdout);
  if (json != nullptr) json->AddRow(std::move(row));
}

void RunDatasetAtScale(const std::string& dataset, double row_scale,
                       int reps, JsonRowWriter* json) {
  Database db = BuildDataset(dataset, row_scale);
  std::printf("-- %s @ %.0fx: %zu total rows, median of %d reps/query\n",
              dataset.c_str(), row_scale, db.TotalRows(), reps);
  vexec::VectorizedEngine vec(&db);
  for (const BenchQuery& b : BuildQueries(db)) {
    EmitRow(json, dataset, row_scale, db.TotalRows(), b.name, reps,
            TimeEngine(vec, dataset + "/" + b.name, b.q, reps));
  }
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main(int argc, char** argv) {
  using namespace lsg;
  using namespace lsg::bench;

  JsonRowWriter json(JsonOutPathFromArgs(argc, argv));
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded bench setup
  const bool quick = std::getenv("LSG_QUICK") != nullptr;

  PrintHeader("Vectorized execution throughput");

  for (const std::string& dataset : DatasetNames()) {
    for (double row_scale : {1.0, 100.0, 1000.0}) {
      int reps = row_scale >= 1000.0 ? 2 : (row_scale >= 100.0 ? 5 : 20);
      if (quick) {
        reps = 3;
        if (row_scale >= 1000.0) {
          std::printf("-- %s @ 1000x skipped (LSG_QUICK)\n", dataset.c_str());
          continue;
        }
      }
      RunDatasetAtScale(dataset, row_scale, reps, &json);
    }
  }
  return 0;
}
