// Training-data factory for a learned cardinality estimator (the paper's
// fourth motivating use case [20, 34]): produce a labeled workload of
// (SQL, true cardinality) pairs with a *controlled label distribution* —
// the very thing random generators cannot do, because their cardinalities
// collapse onto a few magnitudes.
//
// The program trains one model per cardinality bucket, generates a
// balanced sample from each, labels every query with its TRUE cardinality
// (executed against the database, not estimated), and emits CSV on stdout.
//
// Build & run:  ./build/examples/cardinality_training_data > workload.csv

#include <cstdio>

#include "core/generator.h"
#include "core/workload.h"
#include "datasets/xuetang_like.h"
#include "vexec/vectorized_engine.h"

int main() {
  using namespace lsg;

  Database db = BuildXuetangLike();
  std::fprintf(stderr, "XueTang-shaped database: %zu tables, %zu rows\n",
               db.num_tables(), db.TotalRows());

  LearnedSqlGenOptions options;
  options.train_epochs = 120;
  auto gen = LearnedSqlGen::Create(&db, options);
  if (!gen.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }

  // Probe the reachable cardinality range and split it into buckets — each
  // becomes a constraint so the emitted labels cover all magnitudes.
  EnvironmentOptions eo;
  eo.profile = options.profile;
  SqlGenEnvironment probe(&db, &(*gen)->vocab(), &(*gen)->estimator(),
                          &(*gen)->cost_model(),
                          Constraint::Point(ConstraintMetric::kCardinality, 1),
                          eo);
  Rng rng(3);
  MetricDomain dom = ProbeMetricDomain(&probe, 400, &rng, 0.1, 0.95);
  std::fprintf(stderr, "cardinality domain [%.0f, %.0f]\n", dom.lo, dom.hi);

  const int kPerBucket = 12;
  vexec::VectorizedEngine executor(&db);
  std::printf("bucket_lo,bucket_hi,estimated_card,true_card,sql\n");
  int emitted = 0;
  auto grid = GeometricGrid(std::max(1.0, dom.lo), dom.hi, 5);
  for (size_t b = 0; b + 1 < grid.size(); ++b) {
    Constraint c =
        Constraint::Range(ConstraintMetric::kCardinality, grid[b], grid[b + 1]);
    std::fprintf(stderr, "bucket %zu: %s ... ", b, c.ToString().c_str());
    if (Status st = (*gen)->Train(c); !st.ok()) {
      std::fprintf(stderr, "train failed: %s\n", st.ToString().c_str());
      return 1;
    }
    auto report = (*gen)->GenerateSatisfied(kPerBucket);
    if (!report.ok()) {
      std::fprintf(stderr, "generate failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%d queries (%.1fs train, %.1fs gen)\n",
                 report->satisfied, report->train_seconds,
                 report->generate_seconds);
    for (const GeneratedQuery& q : report->queries) {
      // Ground-truth label: execute the generated AST.
      auto truth = executor.Cardinality(q.ast);
      if (!truth.ok()) continue;  // e.g. join-blowup guard; skip the pair
      std::string escaped;
      for (char ch : q.sql) escaped += (ch == '"') ? '\'' : ch;
      std::printf("%.0f,%.0f,%.1f,%llu,\"%s\"\n", grid[b], grid[b + 1],
                  q.metric, static_cast<unsigned long long>(*truth),
                  escaped.c_str());
      ++emitted;
    }
  }
  std::fprintf(stderr, "emitted %d labeled queries\n", emitted);
  return 0;
}
