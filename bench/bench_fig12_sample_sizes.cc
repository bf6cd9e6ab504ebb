// Reproduces Figure 12: accuracy and generation time as a function of the
// value-sampling ratio η (fraction of each column's distinct values that
// enter the action space) on TPC-H.
#include "bench/bench_common.h"

namespace lsg {
namespace bench {
namespace {

void Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader(StrFormat("Figure 12: value-sample-ratio sweep (TPC-H, N=%d, "
                        "epochs=%d)", cfg.n, cfg.epochs));
  const std::vector<double> ratios = {0.02, 0.05, 0.1, 0.25, 0.5, 1.0};

  Database db = BuildDataset("TPC-H", cfg.scale);
  std::printf("%8s %10s %12s %12s %12s %12s\n", "eta", "|A|", "acc point%",
              "acc range%", "time point", "time range");

  for (double eta : ratios) {
    LearnedSqlGenOptions opts = DefaultOptions(cfg);
    opts.vocab.sample_ratio = eta;
    auto gen = LearnedSqlGen::Create(&db, opts);
    LSG_CHECK(gen.ok());

    // Probe the domain once per vocabulary (it shifts slightly with η).
    EnvironmentOptions eo;
    eo.profile = opts.profile;
    SqlGenEnvironment probe(&db, &(*gen)->vocab(), &(*gen)->estimator(),
                            &(*gen)->cost_model(),
                            Constraint::Point(ConstraintMetric::kCardinality, 1),
                            eo);
    Rng rng(7);
    MetricDomain dom = ProbeMetricDomain(&probe, 300, &rng, 0.2, 0.95);

    Constraint point = Constraint::Point(
        ConstraintMetric::kCardinality, GeometricGrid(dom.lo, dom.hi, 3)[1]);
    Constraint range = PaperRangeGrid(ConstraintMetric::kCardinality, dom)[1];

    double acc[2], secs[2];
    const Constraint cs[2] = {point, range};
    for (int i = 0; i < 2; ++i) {
      Stopwatch watch;
      LSG_CHECK_OK((*gen)->Train(cs[i]));
      auto rep = (*gen)->GenerateBatch(cfg.n);
      LSG_CHECK(rep.ok());
      acc[i] = 100 * rep->accuracy;
      secs[i] = watch.ElapsedSeconds();
    }
    std::printf("%8.2f %10d %12.2f %12.2f %11.2fs %11.2fs\n", eta,
                (*gen)->vocab().size(), acc[0], acc[1], secs[0], secs[1]);
    std::fflush(stdout);
  }
  std::printf("shape check (paper): accuracy rises then plateaus with eta; "
              "time dips (faster inference) then rises (slower training)\n");
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main() {
  lsg::bench::Run();
  return 0;
}
