// Reproduces Figure 10: the case study of generated-query diversity and
// complexity on TPC-H — join-table counts (a), nested fraction (b),
// aggregate fraction (c), predicate histogram (d), query types (e), and
// token-length histogram (f). Also runs the entropy-regularization
// ablation (λ=0 vs λ=0.01) that the paper credits for diversity.
#include <set>

#include "bench/bench_common.h"

namespace lsg {
namespace bench {
namespace {

WorkloadDistribution DistributionFor(DatasetContext* ctx, const Constraint& c,
                                     int n) {
  LSG_CHECK_OK(ctx->gen->Train(c));
  auto rep = ctx->gen->GenerateBatch(n);
  LSG_CHECK(rep.ok());
  WorkloadDistribution dist;
  for (const GeneratedQuery& q : rep->queries) {
    if (q.satisfied) dist.Add(q.features);
  }
  std::printf("(constraint %s: %d/%d generated queries satisfied)\n",
              c.ToString().c_str(), dist.total(), n);
  return dist;
}

void Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader(StrFormat("Figure 10: generated-query distribution "
                        "(TPC-H, N=%d)", cfg.n));

  // Panels (a)(b)(c)(d)(f) study SELECT structure (joins, nesting,
  // aggregates, predicates, lengths): rich SELECT grammar, deeper nesting.
  LearnedSqlGenOptions opts = DefaultOptions(cfg);
  opts.profile.max_nesting_depth = 2;
  opts.profile.max_joins = 4;
  DatasetContext ctx = MakeContext("TPC-H", cfg, opts);

  // Panels (a)(b)(c)(f): a high cost point — expensive queries need joins
  // and subqueries (paper: Cost = 10^6 on full-size TPC-H).
  Constraint cost_point = Constraint::Point(
      ConstraintMetric::kCost,
      GeometricGrid(ctx.cost_domain.lo, ctx.cost_domain.hi, 3)[2]);
  std::printf("\n[a,b,c,f] %s\n", cost_point.ToString().c_str());
  WorkloadDistribution cost_dist = DistributionFor(&ctx, cost_point, cfg.n);
  std::printf("%s", cost_dist.ToString().c_str());
  std::printf("shape check: paper reports multi-join >50%%, nested ~47%%, "
              "aggregates ~35%% on this panel\n");

  // Panel (d): predicate counts under a low cardinality range (paper:
  // Card in [1k, 8k] — "satisfied queries usually contain multiple
  // predicates to reduce the cardinality").
  Constraint card_range = PaperRangeGrid(ConstraintMetric::kCardinality,
                                         ctx.card_domain)[3];
  std::printf("\n[d] %s\n", card_range.ToString().c_str());
  WorkloadDistribution card_dist = DistributionFor(&ctx, card_range, cfg.n);
  std::printf("%s", card_dist.ToString().c_str());

  // Panel (e): query-type mix needs the full grammar including DML
  // (the paper's extendable FSM, §5).
  LearnedSqlGenOptions full_opts = DefaultOptions(cfg);
  full_opts.profile = QueryProfile::Full();
  DatasetContext full_ctx = MakeContext("TPC-H", cfg, full_opts);
  std::printf("\n[e] %s, full grammar (all query types)\n",
              card_range.ToString().c_str());
  WorkloadDistribution type_dist =
      DistributionFor(&full_ctx, card_range, cfg.n);
  std::printf("%s", type_dist.ToString().c_str());

  // Ablation: entropy regularization (λ=0.01 vs 0) — distinct-query count
  // among generated queries measures diversity (§4.3).
  std::printf("\n[ablation] entropy regularization & diversity\n");
  for (double lambda : {0.0, 0.01}) {
    LearnedSqlGenOptions aopts = DefaultOptions(cfg);
    aopts.trainer.entropy_coef = lambda;
    auto gen = LearnedSqlGen::Create(ctx.context, aopts);
    LSG_CHECK(gen.ok());
    LSG_CHECK_OK((*gen)->Train(card_range));
    auto rep = (*gen)->GenerateBatch(cfg.n);
    LSG_CHECK(rep.ok());
    std::set<std::string> distinct;
    for (const GeneratedQuery& q : rep->queries) distinct.insert(q.sql);
    std::printf("  lambda=%.2f: accuracy %.2f%%, distinct queries %zu/%d\n",
                lambda, 100 * rep->accuracy, distinct.size(), cfg.n);
  }
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main() {
  lsg::bench::Run();
  return 0;
}
