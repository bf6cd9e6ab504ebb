// Google-benchmark micro-benchmarks for the core components: FSM masking,
// random-walk episodes, executor operators, estimator, cost model, the
// single-lane dense forward kernels, LSTM forward/backward, one decode
// lane-step, actor-critic training epochs, the actor's optimizer tail, and
// vocabulary construction.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/workload.h"
#include "datasets/tpch_like.h"
#include "fuzz/trace.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "optimizer/cost_model.h"
#include "rl/policy_gradient_trainer.h"
#include "rl/policy_network.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

struct MicroFixture {
  MicroFixture() : db(BuildTpchLike()) {
    stats = DatabaseStats::Collect(db);
    est = std::make_unique<CardinalityEstimator>(&db, &stats);
    cost = std::make_unique<CostModel>(est.get());
    VocabularyOptions vo;
    auto v = Vocabulary::Build(db, vo);
    LSG_CHECK(v.ok());
    vocab.emplace(std::move(v).value());
  }
  Database db;
  DatabaseStats stats;
  std::unique_ptr<CardinalityEstimator> est;
  std::unique_ptr<CostModel> cost;
  std::optional<Vocabulary> vocab;
};

MicroFixture& Fixture() {
  static MicroFixture* f = new MicroFixture();
  return *f;
}

void BM_FsmMaskComputation(benchmark::State& state) {
  MicroFixture& f = Fixture();
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile());
  // Advance into a WHERE clause where masking is at its most complex.
  int lineitem = f.db.catalog().FindTable("lineitem");
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kFrom)));
  LSG_CHECK_OK(fsm.Step(f.vocab->table_token_id(lineitem)));
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kSelect)));
  LSG_CHECK_OK(fsm.Step(f.vocab->column_token_id(lineitem, 0)));
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kWhere)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm.ValidActions());
  }
}
BENCHMARK(BM_FsmMaskComputation);

// The same mask-heavy WHERE position under the SPJ profile, and whole
// mask-driven SPJ episodes (ValidActions + Step every token).
void BM_FsmMaskInterpreted(benchmark::State& state) {
  MicroFixture& f = Fixture();
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile::SpjOnly());
  int lineitem = f.db.catalog().FindTable("lineitem");
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kFrom)));
  LSG_CHECK_OK(fsm.Step(f.vocab->table_token_id(lineitem)));
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kSelect)));
  LSG_CHECK_OK(fsm.Step(f.vocab->column_token_id(lineitem, 0)));
  LSG_CHECK_OK(fsm.Step(f.vocab->keyword_id(Keyword::kWhere)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsm.ValidActions());
  }
}
BENCHMARK(BM_FsmMaskInterpreted);

void BM_FsmWalkEpisodeInterpreted(benchmark::State& state) {
  MicroFixture& f = Fixture();
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile::SpjOnly());
  Rng rng(1);
  for (auto _ : state) {
    auto q = RandomWalkQuery(&fsm, &rng);
    LSG_CHECK(q.ok());
    benchmark::DoNotOptimize(q->type);
  }
}
BENCHMARK(BM_FsmWalkEpisodeInterpreted);

void BM_RandomWalkEpisode(benchmark::State& state) {
  MicroFixture& f = Fixture();
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile());
  Rng rng(1);
  for (auto _ : state) {
    auto q = RandomWalkQuery(&fsm, &rng);
    LSG_CHECK(q.ok());
    benchmark::DoNotOptimize(q->type);
  }
}
BENCHMARK(BM_RandomWalkEpisode);

void BM_VexecJoinFilter(benchmark::State& state) {
  MicroFixture& f = Fixture();
  vexec::VectorizedEngine exec(&f.db);
  SelectQuery q;
  q.tables = {f.db.catalog().FindTable("lineitem"),
              f.db.catalog().FindTable("orders")};
  int li = q.tables[0];
  q.items.push_back({AggFunc::kNone, {li, 0}});
  Predicate p;
  p.column = {li, 4};  // l_quantity
  p.op = CompareOp::kLt;
  p.value = Value(int64_t{25});
  q.where.predicates.push_back(std::move(p));
  for (auto _ : state) {
    auto r = exec.ExecuteSelect(q, false);
    LSG_CHECK(r.ok());
    benchmark::DoNotOptimize(r->cardinality);
  }
}
BENCHMARK(BM_VexecJoinFilter);

void BM_VexecGroupBy(benchmark::State& state) {
  MicroFixture& f = Fixture();
  vexec::VectorizedEngine exec(&f.db);
  SelectQuery q;
  int li = f.db.catalog().FindTable("lineitem");
  q.tables = {li};
  q.items.push_back({AggFunc::kNone, {li, 7}});  // l_returnflag
  q.group_by.push_back({li, 7});
  q.having = HavingClause{AggFunc::kSum, {li, 4}, CompareOp::kGt,
                          Value(int64_t{100})};
  for (auto _ : state) {
    auto r = exec.ExecuteSelect(q, false);
    LSG_CHECK(r.ok());
    benchmark::DoNotOptimize(r->cardinality);
  }
}
BENCHMARK(BM_VexecGroupBy);

void BM_CardinalityEstimate(benchmark::State& state) {
  MicroFixture& f = Fixture();
  SelectQuery q;
  int li = f.db.catalog().FindTable("lineitem");
  q.tables = {li, f.db.catalog().FindTable("orders")};
  q.items.push_back({AggFunc::kNone, {li, 0}});
  Predicate p;
  p.column = {li, 4};
  p.op = CompareOp::kLt;
  p.value = Value(int64_t{25});
  q.where.predicates.push_back(std::move(p));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.est->EstimateSelect(q, nullptr));
  }
}
BENCHMARK(BM_CardinalityEstimate);

void BM_CostEstimate(benchmark::State& state) {
  MicroFixture& f = Fixture();
  SelectQuery q;
  int li = f.db.catalog().FindTable("lineitem");
  q.tables = {li};
  q.items.push_back({AggFunc::kMax, {li, 5}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.cost->SelectCost(q));
  }
}
BENCHMARK(BM_CostEstimate);

// --- feedback plumbing: incremental prefix estimates ---------------------
//
// BM_EnvEpisodeIncrementalEstimates replays recorded episodes through a
// SqlGenEnvironment, whose per-step estimator feedback on a SELECT prefix
// is the O(1) PrefixEstimator update. BM_FeedbackRepeatedFull prices the
// full AST walk it replaces on the same queries.

const std::vector<std::vector<int>>& RecordedEpisodes() {
  static const std::vector<std::vector<int>>* kEpisodes = [] {
    MicroFixture& f = Fixture();
    auto* eps = new std::vector<std::vector<int>>;
    // Full profile: joins, subqueries and wide WHERE clauses, where the
    // full re-walk is at its most expensive.
    GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile::Full());
    for (int i = 0; i < 32; ++i) {
      Rng rng(1000 + i);
      std::vector<int> actions;
      fsm.Reset();
      LSG_CHECK(RandomWalkQuery(&fsm, &rng, &actions).ok());
      eps->push_back(std::move(actions));
    }
    return eps;
  }();
  return *kEpisodes;
}

void BM_EnvEpisodeIncrementalEstimates(benchmark::State& state) {
  MicroFixture& f = Fixture();
  const auto& episodes = RecordedEpisodes();
  EnvironmentOptions eo;
  eo.profile = QueryProfile::Full();  // matches RecordedEpisodes()
  SqlGenEnvironment env(&f.db, &*f.vocab, f.est.get(), f.cost.get(),
                        Constraint::Range(ConstraintMetric::kCardinality, 5,
                                          1000000),
                        eo);
  size_t i = 0;
  uint64_t steps = 0;
  for (auto _ : state) {
    const std::vector<int>& actions = episodes[i++ % episodes.size()];
    env.Reset();
    for (int a : actions) {
      auto r = env.Step(a);
      LSG_CHECK(r.ok());
      benchmark::DoNotOptimize(r->metric);
      ++steps;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_EnvEpisodeIncrementalEstimates);

// The full-walk feedback computation alone (no FSM / policy overhead) on
// the completed queries of the same episodes.

const std::vector<QueryAst>& RecordedAsts() {
  static const std::vector<QueryAst>* kAsts = [] {
    MicroFixture& f = Fixture();
    auto* asts = new std::vector<QueryAst>;
    GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile::Full());
    for (const std::vector<int>& actions : RecordedEpisodes()) {
      fsm.Reset();
      auto ast = ReplayActions(&fsm, actions, nullptr);
      LSG_CHECK(ast.ok());
      asts->push_back(std::move(ast).value());
    }
    return asts;
  }();
  return *kAsts;
}

void BM_FeedbackRepeatedFull(benchmark::State& state) {
  MicroFixture& f = Fixture();
  const auto& asts = RecordedAsts();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.est->EstimateCardinality(asts[i++ % asts.size()]));
  }
}
BENCHMARK(BM_FeedbackRepeatedFull);

// One cache-less lane step of the paper's 2-layer, 30-unit LSTM
// over the TPC-H vocabulary, with `tail_dim` constraint features after the
// one-hot token (AC-extend's input with 2).
void LstmStepOneHot(benchmark::State& state, int tail_dim) {
  MicroFixture& f = Fixture();
  Rng rng(3);
  LstmStack lstm(f.vocab->size() + 1 + tail_dim, 30, 2, 0.f, &rng, tail_dim);
  LstmStack::State st = lstm.InitialState();
  LstmStack::Workspace ws;
  const std::vector<float> tail(tail_dim, 0.5f);
  LstmStack::Lane lane;
  lane.tail = tail.data();
  lane.state = &st;
  int token = 0;
  for (auto _ : state) {
    lane.token = token % f.vocab->size();
    benchmark::DoNotOptimize(lstm.Step(lane, &ws));
    ++token;
  }
}

void BM_LstmStepOneHot(benchmark::State& state) { LstmStepOneHot(state, 0); }
BENCHMARK(BM_LstmStepOneHot);

void BM_LstmStepOneHotTail(benchmark::State& state) {
  LstmStepOneHot(state, 2);
}
BENCHMARK(BM_LstmStepOneHotTail);

// The gate product of the paper's 30-unit LSTM: 4H x H = 120 x 30, the
// Wh * h_prev term every training and decode step runs per layer (through
// the packed tensor's forward panel).
void BM_MatVecAccumGate(benchmark::State& state) {
  Rng rng(7);
  ParamTensor w("wh", Matrix::Xavier(120, 30, &rng), /*packed=*/true);
  Matrix x = Matrix::Randn(30, 1, 1.f, &rng);
  std::vector<float> y(120, 0.f);
  for (auto _ : state) {
    MatMatAccum(w, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MatVecAccumGate);

// The masked policy head: 9 gathered rows (about the mean FSM mask width)
// of the TPC-H vocabulary-sized output layer.
void BM_HeadForwardRows(benchmark::State& state) {
  MicroFixture& f = Fixture();
  Rng rng(9);
  const int vocab = f.vocab->size();
  Linear head(30, vocab, &rng);
  Matrix x = Matrix::Randn(30, 1, 1.f, &rng);
  std::vector<int> rows;
  for (int k = 0; k < 9; ++k) rows.push_back(k * (vocab - 1) / 8);
  std::vector<float> y(rows.size());
  for (auto _ : state) {
    head.ForwardRows(x.data(), rows.data(), static_cast<int>(rows.size()),
                     y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HeadForwardRows);

// One decode step as Decode runs it: the FSM mask, the const Step of
// the paper's actor (LSTM step, masked head, compact softmax),
// SampleAction and the environment step with its estimator feedback, over
// the TPC-H vocabulary. Episodes restart on EOF.
void BM_DecodeLaneStep(benchmark::State& state) {
  MicroFixture& f = Fixture();
  Rng init(NetworkOptions().seed);
  PolicyNetwork actor(f.vocab->size(), NetworkOptions(), &init);
  SqlGenEnvironment env(
      &f.db, &*f.vocab, f.est.get(), f.cost.get(),
      Constraint::Range(ConstraintMetric::kCardinality, 100, 1000),
      EnvironmentOptions());
  Rng rng(11);
  PolicyNetwork::Workspace ws;
  PolicyNetwork::CompactDistribution dist;
  PolicyNetwork::Episode ep = actor.BeginEpisode(false);
  env.Reset();
  for (auto _ : state) {
    LSG_CHECK_OK(actor.Step(&ep, env.ValidActions().ids, /*dropout=*/nullptr,
                            &dist, &ws));
    const int a = actor.SampleAction(dist, &rng);
    actor.RecordAction(&ep, a);
    auto sr = env.Step(a);
    LSG_CHECK(sr.ok());
    if (sr->done) {
      benchmark::DoNotOptimize(env.TakeAst());
      env.Reset();
      ep = actor.BeginEpisode(false);
    }
  }
}
BENCHMARK(BM_DecodeLaneStep);

// A fresh actor's construction over the TPC-H vocabulary (about 2,798
// input columns, ~430K weights), as every training starts: the weight draw,
// the zeroed gradients and the forward panels.
void BM_ActorInit(benchmark::State& state) {
  MicroFixture& f = Fixture();
  NetworkOptions no;
  for (auto _ : state) {
    Rng init(no.seed);
    PolicyNetwork actor(f.vocab->size(), no, &init);
    benchmark::DoNotOptimize(actor.Params().front()->value().data());
  }
}
BENCHMARK(BM_ActorInit);

// The optimizer tail of one served training update, ClipGradNorm then
// Adam::Step, on a TPC-H actor whose live rows come from 20 real
// critic-free epochs on a cardinality-range bucket, as a cold request
// trains. The gradient is refilled over the live spans (untimed) before
// every step. wx_only:1 times layer-0 Wx alone, under an Adam of its own.
void BM_ActorUpdate(benchmark::State& state) {
  MicroFixture& f = Fixture();
  SqlGenEnvironment env(
      &f.db, &*f.vocab, f.est.get(), f.cost.get(),
      Constraint::Range(ConstraintMetric::kCardinality, 100, 1000),
      EnvironmentOptions());
  const TrainerOptions to;
  TrainingActor actor(f.vocab->size(), to.net, to.seed, to.actor_lr);
  Rng rng(to.seed);
  for (int epoch = 0; epoch < 20; ++epoch) {
    LSG_CHECK(TrainPolicyBatch(&env, &actor, /*critic=*/nullptr,
                               /*critic_opt=*/nullptr, &rng, to)
                  .ok());
  }
  std::vector<ParamTensor*> params = actor.net->Params();
  Adam* opt = &actor.opt;
  std::optional<Adam> wx_opt;
  if (state.range(0) == 1) {
    params.resize(1);
    opt = &wx_opt.emplace(params, to.actor_lr);
  }
  std::vector<Matrix> grads;
  Rng fill(3);
  for (ParamTensor* p : params) {
    Matrix& g = grads.emplace_back(p->value().rows(), p->value().cols());
    p->ForEachLiveSpan([&](size_t k, size_t n, float*) {
      for (size_t i = 0; i < n; ++i) {
        g.data()[k + i] = static_cast<float>(fill.Normal(0.0, 0.05));
      }
    });
  }
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->ForEachLiveSpan([&](size_t k, size_t n, float* g) {
        std::copy_n(grads[i].data() + k, n, g);
      });
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(ClipGradNorm(params, kGradClip));
    opt->Step();
  }
}
BENCHMARK(BM_ActorUpdate)->ArgName("wx_only")->Arg(0)->Arg(1);

void BM_PolicyEpisodeWithBackward(benchmark::State& state) {
  MicroFixture& f = Fixture();
  NetworkOptions no;
  Rng dropout(no.seed);  // draws the weights, then the dropout masks
  PolicyNetwork net(f.vocab->size(), no, &dropout);
  PolicyNetwork::Workspace ws;
  Rng rng(5);
  GenerationFsm fsm(&f.db, &*f.vocab, QueryProfile());
  for (auto _ : state) {
    fsm.Reset();
    auto ep = net.BeginEpisode(true);
    std::vector<double> adv;
    while (!fsm.done()) {
      PolicyNetwork::CompactDistribution& dist = ep.dists.emplace_back();
      LSG_CHECK_OK(
          net.Step(&ep, fsm.ValidActions().ids, &dropout, &dist, &ws));
      int a = net.SampleAction(dist, &rng);
      net.RecordAction(&ep, a);
      LSG_CHECK_OK(fsm.Step(a));
      adv.push_back(0.1);
    }
    (void)fsm.TakeAst();
    net.AccumulateGradients(ep, adv, 0.01);
    benchmark::DoNotOptimize(ep.actions.size());
  }
}
BENCHMARK(BM_PolicyEpisodeWithBackward);

// One policy-gradient training epoch with the critic (Algorithm 3: a batch
// of episodes, then one update of both networks) on a TPC-H
// cardinality-range bucket with default TrainerOptions — the unit a cold
// request repeats per epoch.
void BM_PolicyGradientEpoch(benchmark::State& state) {
  MicroFixture& f = Fixture();
  SqlGenEnvironment env(
      &f.db, &*f.vocab, f.est.get(), f.cost.get(),
      Constraint::Range(ConstraintMetric::kCardinality, 100, 1000),
      EnvironmentOptions());
  PolicyGradientTrainer trainer(&env, TrainerOptions());
  for (auto _ : state) {
    auto st = trainer.TrainEpoch();
    LSG_CHECK(st.ok());
    benchmark::DoNotOptimize(st->mean_total_reward);
  }
}
BENCHMARK(BM_PolicyGradientEpoch);

void BM_VocabularyBuild(benchmark::State& state) {
  MicroFixture& f = Fixture();
  VocabularyOptions vo;
  for (auto _ : state) {
    auto v = Vocabulary::Build(f.db, vo);
    LSG_CHECK(v.ok());
    benchmark::DoNotOptimize(v->size());
  }
}
BENCHMARK(BM_VocabularyBuild);

void BM_StatsCollect(benchmark::State& state) {
  MicroFixture& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DatabaseStats::Collect(f.db));
  }
}
BENCHMARK(BM_StatsCollect);

}  // namespace
}  // namespace lsg

// BENCHMARK_MAIN plus the repo-wide `--json OUT` convention: the flag is
// translated into google-benchmark's --benchmark_out=OUT (json format), so
// every bench binary shares one way to ask for machine-readable results.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      storage.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      storage.push_back("--benchmark_out_format=json");
      ++i;
    } else {
      storage.push_back(argv[i]);
    }
  }
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int pargc = static_cast<int>(args.size());
  benchmark::Initialize(&pargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
