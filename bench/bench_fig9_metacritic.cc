// Reproduces Figure 9: meta-critic generalization to new constraints on
// XueTang — Scratch (train from zero) vs AC-extend (constraint encoded into
// the state) vs MetaCritic (pre-trained shared critic):
// (a) accuracy on held-out constraints, (b) adaptation+generation time,
// (c) average-reward adaptation trace.
#include "bench/bench_common.h"
#include "rl/policy_gradient_trainer.h"
#include "rl/meta_critic.h"

namespace lsg {
namespace bench {
namespace {

/// Normalized constraint features for AC-extend.
std::vector<float> ConstraintFeatures(const Constraint& c,
                                      const MetricDomain& dom) {
  auto norm = [&](double v) {
    return static_cast<float>((v - dom.lo) / std::max(1.0, dom.hi - dom.lo));
  };
  return {norm(c.lo), norm(c.hi)};
}

struct MethodResult {
  double accuracy = 0;
  double seconds = 0;
  std::vector<double> trace;
};

void Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  // Adaptation needs fewer epochs than from-scratch training (that is the
  // point of the experiment); ~half the standard budget keeps the three
  // methods comparable while bounding the 4-constraint x 3-method sweep.
  const int adapt_epochs = std::max(10, cfg.epochs / 2);
  const int pretrain_epochs = std::max(10, cfg.epochs / 4);
  const int n_eval = std::max(10, cfg.n / 2);
  PrintHeader(StrFormat(
      "Figure 9: meta-critic generalization (XueTang, K=10 tasks, "
      "pretrain=%d, adapt=%d epochs, N=%d)",
      pretrain_epochs, adapt_epochs, n_eval));

  LearnedSqlGenOptions opts = DefaultOptions(cfg);
  DatasetContext ctx = MakeContext("XueTang", cfg, opts);
  MetricDomain dom = ctx.card_domain;

  // Pre-training tasks: the domain split into 10 contiguous ranges (§6).
  std::vector<Constraint> tasks =
      SplitIntoTasks(ConstraintMetric::kCardinality, dom, 10);
  // Held-out constraints: offset ranges straddling task boundaries
  // (the paper's [11.5K,12.5K] ... pattern).
  std::vector<Constraint> held_out;
  const double w = (dom.hi - dom.lo) / 10.0;
  for (int i : {0, 1, 2, 3}) {
    held_out.push_back(Constraint::Range(ConstraintMetric::kCardinality,
                                         dom.lo + (i + 0.5) * w,
                                         dom.lo + (i + 1.5) * w));
  }

  std::vector<std::unique_ptr<SqlGenEnvironment>> task_envs;
  std::vector<Environment*> task_env_ptrs;
  for (const Constraint& c : tasks) {
    task_envs.push_back(MakeEnv(&ctx, c, opts.profile));
    task_env_ptrs.push_back(task_envs.back().get());
  }

  TrainerOptions trainer_opts = opts.trainer;
  trainer_opts.seed = 9001;

  // --- MetaCritic: pre-train the shared critic across the 10 tasks.
  Stopwatch pretrain_watch;
  MetaCriticTrainer meta(task_env_ptrs, trainer_opts, MetaCritic::Options{});
  for (int e = 0; e < pretrain_epochs; ++e) {
    LSG_CHECK(meta.PretrainEpoch().ok());
  }
  double meta_pretrain_s = pretrain_watch.ElapsedSeconds();

  // --- AC-extend: one actor-critic with constraint features, pre-trained
  // round-robin over the same tasks.
  Stopwatch acx_watch;
  TrainerOptions acx_opts = trainer_opts;
  acx_opts.net.extra_input_dims = 2;
  PolicyGradientTrainer acx(task_env_ptrs[0], acx_opts);
  for (int e = 0; e < pretrain_epochs; ++e) {
    for (size_t t = 0; t < tasks.size(); ++t) {
      acx.set_environment(task_env_ptrs[t]);
      acx.set_extra_features(ConstraintFeatures(tasks[t], dom));
      LSG_CHECK(acx.TrainEpoch().ok());
    }
  }
  double acx_pretrain_s = acx_watch.ElapsedSeconds();
  std::printf("pretraining: MetaCritic %.1fs, AC-extend %.1fs (amortized "
              "across new tasks)\n", meta_pretrain_s, acx_pretrain_s);

  auto eval_with = [&](Environment* env, auto&& generate_one) {
    int satisfied = 0;
    for (int i = 0; i < n_eval; ++i) {
      auto t = generate_one(env);
      LSG_CHECK(t.ok());
      if (t->satisfied) ++satisfied;
    }
    return static_cast<double>(satisfied) / n_eval;
  };

  std::printf("\n%-24s %10s %10s %10s  (accuracy %% after adaptation)\n",
              "new constraint", "Scratch", "AC-extend", "MetaCritic");
  std::vector<double> scratch_trace, acx_trace, meta_trace;
  double sc_acc = 0, ax_acc = 0, mc_acc = 0;
  double sc_time = 0, ax_time = 0, mc_time = 0;
  for (size_t hi = 0; hi < held_out.size(); ++hi) {
    const Constraint& c = held_out[hi];
    auto env = MakeEnv(&ctx, c, opts.profile);

    // Scratch.
    Stopwatch sw;
    PolicyGradientTrainer scratch(env.get(), trainer_opts);
    MethodResult sc;
    for (int e = 0; e < adapt_epochs; ++e) {
      auto st = scratch.TrainEpoch();
      LSG_CHECK(st.ok());
      sc.trace.push_back(st->mean_total_reward);
    }
    sc.accuracy = eval_with(env.get(), [&](Environment*) {
      return scratch.Generate();
    });
    sc.seconds = sw.ElapsedSeconds();

    // AC-extend (continue from pre-trained weights).
    sw.Restart();
    acx.set_environment(env.get());
    acx.set_extra_features(ConstraintFeatures(c, dom));
    MethodResult ax;
    for (int e = 0; e < adapt_epochs; ++e) {
      auto st = acx.TrainEpoch();
      LSG_CHECK(st.ok());
      ax.trace.push_back(st->mean_total_reward);
    }
    ax.accuracy = eval_with(env.get(), [&](Environment*) {
      return acx.Generate();
    });
    ax.seconds = sw.ElapsedSeconds();

    // MetaCritic adaptation: fresh actor + shared pre-trained critic.
    sw.Restart();
    auto trace = meta.Adapt(env.get(), adapt_epochs);
    LSG_CHECK(trace.ok());
    MethodResult mc;
    for (const EpochStats& st : *trace) mc.trace.push_back(st.mean_total_reward);
    mc.accuracy = eval_with(env.get(), [&](Environment* e) {
      return meta.GenerateWithAdapted(e);
    });
    mc.seconds = sw.ElapsedSeconds();

    std::printf("%-24s %10.2f %10.2f %10.2f\n", c.ToString().c_str(),
                100 * sc.accuracy, 100 * ax.accuracy, 100 * mc.accuracy);
    std::fflush(stdout);
    sc_acc += sc.accuracy;
    ax_acc += ax.accuracy;
    mc_acc += mc.accuracy;
    sc_time += sc.seconds;
    ax_time += ax.seconds;
    mc_time += mc.seconds;
    if (hi == 0) {
      scratch_trace = sc.trace;
      acx_trace = ax.trace;
      meta_trace = mc.trace;
    }
  }
  const double k = static_cast<double>(held_out.size());
  std::printf("\n(b) mean adaptation+evaluation seconds per new task: "
              "Scratch %.2f, AC-extend %.2f, MetaCritic %.2f\n",
              sc_time / k, ax_time / k, mc_time / k);
  std::printf("(a) mean accuracy: Scratch %.2f%%, AC-extend %.2f%%, "
              "MetaCritic %.2f%% (paper: MetaCritic slightly highest)\n",
              100 * sc_acc / k, 100 * ax_acc / k, 100 * mc_acc / k);

  std::printf("\n(c) adaptation trace on %s (mean batch reward)\n",
              held_out[0].ToString().c_str());
  std::printf("%8s %10s %10s %10s\n", "epoch", "Scratch", "AC-extend",
              "MetaCritic");
  for (size_t e = 0; e < scratch_trace.size();
       e += std::max<size_t>(1, scratch_trace.size() / 15)) {
    std::printf("%8zu %10.3f %10.3f %10.3f\n", e, scratch_trace[e],
                acx_trace[e], meta_trace[e]);
  }
  auto tail_mean = [](const std::vector<double>& t) {
    size_t k2 = std::max<size_t>(1, t.size() / 5);
    double s = 0;
    for (size_t e = t.size() - k2; e < t.size(); ++e) s += t[e];
    return s / k2;
  };
  std::printf("shape check: late-adaptation reward Scratch %.3f, AC-extend "
              "%.3f, MetaCritic %.3f (paper: MetaCritic converges fastest)\n",
              tail_mean(scratch_trace), tail_mean(acx_trace),
              tail_mean(meta_trace));
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main() {
  lsg::bench::Run();
  return 0;
}
