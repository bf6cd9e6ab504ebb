// Reproduces Figure 8: actor-critic (LearnedSQLGen) vs plain REINFORCE on
// TPC-H — (a) accuracy per range constraint, (b) time to N satisfying
// queries, (c) average-reward training trace.
#include "bench/bench_common.h"

namespace lsg {
namespace bench {
namespace {

void Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader(StrFormat("Figure 8: REINFORCE vs actor-critic (TPC-H, N=%d)",
                        cfg.n));
  LearnedSqlGenOptions ac_opts = DefaultOptions(cfg, /*seed=*/8001);
  LearnedSqlGenOptions rf_opts = DefaultOptions(cfg, /*seed=*/8001);
  rf_opts.use_reinforce = true;

  DatasetContext ctx = MakeContext("TPC-H", cfg, ac_opts);
  auto rf_gen = LearnedSqlGen::Create(ctx.context, rf_opts);
  LSG_CHECK(rf_gen.ok());

  std::vector<Constraint> ranges =
      PaperRangeGrid(ConstraintMetric::kCardinality, ctx.card_domain);

  std::printf("\n(a,b) accuracy and time per range constraint\n");
  std::printf("%-22s %12s %12s %14s %14s\n", "setting", "RF acc%", "AC acc%",
              "RF time(s)", "AC time(s)");
  double ac_acc_sum = 0, rf_acc_sum = 0;
  std::vector<EpochStats> ac_trace, rf_trace;
  for (size_t i = 0; i < ranges.size(); ++i) {
    const Constraint& c = ranges[i];
    LSG_CHECK_OK(ctx.gen->Train(c));
    if (i == 0) ac_trace = ctx.gen->trace();
    auto ac_batch = ctx.gen->GenerateBatch(cfg.n);
    LSG_CHECK(ac_batch.ok());
    auto ac_sat = ctx.gen->GenerateSatisfied(cfg.n);
    LSG_CHECK(ac_sat.ok());

    LSG_CHECK_OK((*rf_gen)->Train(c));
    if (i == 0) rf_trace = (*rf_gen)->trace();
    auto rf_batch = (*rf_gen)->GenerateBatch(cfg.n);
    LSG_CHECK(rf_batch.ok());
    auto rf_sat = (*rf_gen)->GenerateSatisfied(cfg.n);
    LSG_CHECK(rf_sat.ok());

    auto scale_time = [&](const GenerationReport& rep) {
      double t = rep.total_seconds();
      if (rep.satisfied > 0 && rep.satisfied < cfg.n) {
        t *= static_cast<double>(cfg.n) / rep.satisfied;
      }
      return t;
    };
    std::printf("%-22s %12.2f %12.2f %14.2f %14.2f\n", c.ToString().c_str(),
                100 * rf_batch->accuracy, 100 * ac_batch->accuracy,
                scale_time(*rf_sat), scale_time(*ac_sat));
    std::fflush(stdout);
    ac_acc_sum += ac_batch->accuracy;
    rf_acc_sum += rf_batch->accuracy;
  }
  std::printf("shape check: AC mean accuracy %.2f%% vs REINFORCE %.2f%% "
              "(paper: AC ~9%% higher)\n",
              100 * ac_acc_sum / ranges.size(),
              100 * rf_acc_sum / ranges.size());

  std::printf("\n(c) training trace, %s (mean batch reward per epoch)\n",
              ranges[0].ToString().c_str());
  std::printf("%8s %12s %12s\n", "epoch", "REINFORCE", "ActorCritic");
  size_t epochs = std::min(ac_trace.size(), rf_trace.size());
  for (size_t e = 0; e < epochs; e += std::max<size_t>(1, epochs / 20)) {
    std::printf("%8zu %12.3f %12.3f\n", e, rf_trace[e].mean_total_reward,
                ac_trace[e].mean_total_reward);
  }
  double ac_late = 0, rf_late = 0;
  size_t tail = std::max<size_t>(1, epochs / 5);
  for (size_t e = epochs - tail; e < epochs; ++e) {
    ac_late += ac_trace[e].mean_total_reward;
    rf_late += rf_trace[e].mean_total_reward;
  }
  std::printf("shape check: late-training mean reward AC %.3f vs RF %.3f "
              "(paper: AC converges higher/steadier)\n", ac_late / tail,
              rf_late / tail);
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main() {
  lsg::bench::Run();
  return 0;
}
