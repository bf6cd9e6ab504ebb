// Reproduces Figure 8: actor-critic (LearnedSQLGen) vs plain REINFORCE on
// TPC-H — (a) accuracy per range constraint, (b) time to N satisfying
// queries, (c) average-reward training trace — and (d) the check behind
// serving critic-free: accuracy and training time of both trainers at the
// served budgets of 20 and 40 epochs.
//
// The pipeline (LearnedSqlGen::Train) trains critic-free, so it supplies
// the REINFORCE column; the AC column drives the paper's §4.3 trainer,
// PolicyGradientTrainer(with_critic = true), the same way.
#include "bench/bench_common.h"
#include "core/decode.h"

namespace lsg {
namespace bench {
namespace {

/// An actor-critic model trained as LearnedSqlGen::Train trains its
/// critic-free one: the pipeline's environment options, the best actor
/// restored, served as a snapshot and decoded with the trainer's sampling
/// stream.
struct AcModel {
  ServingSnapshot snapshot;
  Rng rng;
  std::vector<EpochStats> trace;
};

AcModel TrainActorCritic(const std::shared_ptr<const DatabaseContext>& context,
                         const LearnedSqlGenOptions& opts,
                         const Constraint& c) {
  EnvironmentOptions env_opts;
  env_opts.profile = opts.profile;
  env_opts.feedback = opts.feedback;
  env_opts.dense_partial_rewards = opts.dense_partial_rewards;
  SqlGenEnvironment env(*context, c, env_opts);
  Stopwatch watch;
  PolicyGradientTrainer trainer(&env, opts.trainer, /*with_critic=*/true);
  AcModel m;
  for (int e = 0; e < opts.train_epochs; ++e) {
    auto st = trainer.TrainEpoch();
    LSG_CHECK(st.ok()) << st.status().ToString();
    m.trace.push_back(*st);
  }
  trainer.RestoreBestActor();
  m.rng = *trainer.sampling_rng();
  m.snapshot.context = context;
  m.snapshot.actor = trainer.ReleaseActor();
  m.snapshot.env_opts = env_opts;
  m.snapshot.constraint = c;
  m.snapshot.attempts_factor = opts.attempts_factor;
  m.snapshot.train_seconds = watch.ElapsedSeconds();
  return m;
}

GenerationReport DecodeAc(AcModel* m, int n, bool batch) {
  auto rep = Decode(m->snapshot, m->snapshot.constraint, n, batch, &m->rng);
  LSG_CHECK(rep.ok()) << rep.status().ToString();
  return std::move(rep).value();
}

/// (d): GenerateBatch(128) accuracy and mean training time of both
/// trainers, at the served options and 20 and 40 epochs, over 7 TPC-H
/// constraints (the four card ranges of (a), three cost ranges) × 3
/// trainer seeds.
void RunServedBudgetProbe(const DatasetContext& ctx,
                          const std::vector<Constraint>& card_ranges) {
  std::vector<Constraint> constraints = card_ranges;
  std::vector<Constraint> cost =
      PaperRangeGrid(ConstraintMetric::kCost, ctx.cost_domain);
  constraints.insert(constraints.end(), cost.begin(), cost.begin() + 3);
  const std::vector<uint64_t> seeds = {11, 12, 13};
  const int kBatch = 128;

  std::printf("\n(d) served budget: GenerateBatch(%d) accuracy and mean "
              "training time, %zu constraints x %zu trainer seeds\n",
              kBatch, constraints.size(), seeds.size());
  std::printf("%-12s %8s %10s %14s\n", "trainer", "epochs", "acc%",
              "train ms");
  for (int epochs : {20, 40}) {
    double ac_acc = 0, rf_acc = 0, ac_ms = 0, rf_ms = 0;
    for (const Constraint& c : constraints) {
      for (uint64_t seed : seeds) {
        LearnedSqlGenOptions opts;
        opts.train_epochs = epochs;
        opts.trainer.seed = seed;
        AcModel ac = TrainActorCritic(ctx.context, opts, c);
        ac_acc += DecodeAc(&ac, kBatch, /*batch=*/true).accuracy;
        ac_ms += 1e3 * ac.snapshot.train_seconds;

        auto rf = LearnedSqlGen::Create(ctx.context, opts);
        LSG_CHECK(rf.ok()) << rf.status().ToString();
        LSG_CHECK_OK((*rf)->Train(c));
        auto rep = (*rf)->GenerateBatch(kBatch);
        LSG_CHECK(rep.ok()) << rep.status().ToString();
        rf_acc += rep->accuracy;
        rf_ms += 1e3 * (*rf)->last_train_seconds();
      }
    }
    const double runs = static_cast<double>(constraints.size() * seeds.size());
    std::printf("%-12s %8d %10.2f %14.1f\n", "ActorCritic", epochs,
                100 * ac_acc / runs, ac_ms / runs);
    std::printf("%-12s %8d %10.2f %14.1f\n", "REINFORCE", epochs,
                100 * rf_acc / runs, rf_ms / runs);
    std::fflush(stdout);
  }
}

void Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader(StrFormat("Figure 8: REINFORCE vs actor-critic (TPC-H, N=%d)",
                        cfg.n));
  const LearnedSqlGenOptions opts = DefaultOptions(cfg);
  // ctx.gen is the critic-free pipeline: the REINFORCE column.
  DatasetContext ctx = MakeContext("TPC-H", cfg, opts);

  std::vector<Constraint> ranges =
      PaperRangeGrid(ConstraintMetric::kCardinality, ctx.card_domain);

  std::printf("\n(a,b) accuracy and time per range constraint\n");
  std::printf("%-22s %12s %12s %14s %14s\n", "setting", "RF acc%", "AC acc%",
              "RF time(s)", "AC time(s)");
  double ac_acc_sum = 0, rf_acc_sum = 0;
  std::vector<EpochStats> ac_trace, rf_trace;
  for (size_t i = 0; i < ranges.size(); ++i) {
    const Constraint& c = ranges[i];
    AcModel ac = TrainActorCritic(ctx.context, opts, c);
    if (i == 0) ac_trace = ac.trace;
    GenerationReport ac_batch = DecodeAc(&ac, cfg.n, /*batch=*/true);
    GenerationReport ac_sat = DecodeAc(&ac, cfg.n, /*batch=*/false);

    LSG_CHECK_OK(ctx.gen->Train(c));
    if (i == 0) rf_trace = ctx.gen->trace();
    auto rf_batch = ctx.gen->GenerateBatch(cfg.n);
    LSG_CHECK(rf_batch.ok());
    auto rf_sat = ctx.gen->GenerateSatisfied(cfg.n);
    LSG_CHECK(rf_sat.ok());

    auto scale_time = [&](const GenerationReport& rep) {
      double t = rep.total_seconds();
      if (rep.satisfied > 0 && rep.satisfied < cfg.n) {
        t *= static_cast<double>(cfg.n) / rep.satisfied;
      }
      return t;
    };
    std::printf("%-22s %12.2f %12.2f %14.2f %14.2f\n", c.ToString().c_str(),
                100 * rf_batch->accuracy, 100 * ac_batch.accuracy,
                scale_time(*rf_sat), scale_time(ac_sat));
    std::fflush(stdout);
    ac_acc_sum += ac_batch.accuracy;
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

  RunServedBudgetProbe(ctx, ranges);
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main() {
  lsg::bench::Run();
  return 0;
}
