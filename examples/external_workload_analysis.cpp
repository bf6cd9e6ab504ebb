// External-workload analysis: ingest SQL text written elsewhere (a DBA's
// suspect queries, a benchmark's template file, ...) through the bundled
// parser, then compare the optimizer's estimates against true execution —
// the estimator-quality loop that motivates constraint-aware generation in
// the first place.
//
// Build & run:  ./build/examples/external_workload_analysis

#include <cmath>
#include <cstdio>

#include "datasets/tpch_like.h"
#include "optimizer/cardinality_estimator.h"
#include "optimizer/cost_model.h"
#include "sql/parser.h"
#include "sql/render.h"
#include "vexec/vectorized_engine.h"

int main() {
  using namespace lsg;

  Database db = BuildTpchLike();
  DatabaseStats stats = DatabaseStats::Collect(db);
  CardinalityEstimator estimator(&db, &stats);
  CostModel cost_model(&estimator);
  vexec::VectorizedEngine executor(&db);

  // A hand-written workload, exactly as a user would supply it.
  const char* workload[] = {
      "SELECT lineitem.l_id FROM lineitem WHERE lineitem.l_quantity < 10",
      "SELECT orders.o_orderkey FROM orders JOIN customer ON "
      "orders.o_custkey = customer.c_custkey WHERE customer.c_acctbal > 0",
      "SELECT part.p_brand, COUNT(part.p_size) FROM part GROUP BY "
      "part.p_brand HAVING COUNT(part.p_size) > 20",
      "SELECT supplier.s_name FROM supplier WHERE supplier.s_suppkey IN "
      "(SELECT lineitem.l_suppkey FROM lineitem WHERE "
      "lineitem.l_quantity >= 45)",
      "SELECT customer.c_name FROM customer WHERE customer.c_name LIKE "
      "'%er_1%' ORDER BY customer.c_name",
      "DELETE FROM lineitem WHERE lineitem.l_discount >= 0.08",
      "UPDATE orders SET o_orderstatus = 'F' WHERE orders.o_totalprice < "
      "1000",
  };

  std::printf("%-10s %-10s %-8s %-9s  query\n", "est.card", "true.card",
              "q-error", "est.cost");
  double worst_q = 1.0;
  for (const char* sql : workload) {
    auto ast = ParseSql(sql, db.catalog());
    if (!ast.ok()) {
      std::printf("PARSE FAIL: %s (%s)\n", sql, ast.status().ToString().c_str());
      continue;
    }
    double est = estimator.EstimateCardinality(*ast);
    auto truth = executor.Cardinality(*ast);
    if (!truth.ok()) {
      std::printf("EXEC FAIL: %s\n", sql);
      continue;
    }
    double t = static_cast<double>(*truth);
    double qerr = std::max((est + 1) / (t + 1), (t + 1) / (est + 1));
    worst_q = std::max(worst_q, qerr);
    std::printf("%-10.1f %-10.0f %-8.2f %-9.1f  %.80s%s\n", est, t, qerr,
                cost_model.EstimateCost(*ast), sql,
                std::string(sql).size() > 80 ? "..." : "");
  }
  std::printf("\nworst q-error across the workload: %.2f\n", worst_q);
  std::printf("(queries with big q-errors are exactly the ones a learned "
              "estimator needs training data for -> see "
              "examples/cardinality_training_data)\n");
  return 0;
}
