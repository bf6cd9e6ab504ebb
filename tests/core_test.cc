#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "common/random.h"
#include "core/constraint.h"
#include "core/decode.h"
#include "core/environment.h"
#include "core/generator.h"
#include "core/workload.h"
#include "datasets/tpch_like.h"
#include "obs/episode_telemetry.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/obs.h"
#include "obs/span_tracer.h"
#include "rl/policy_gradient_trainer.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

// ------------------------------------------------------------ constraint

TEST(GeometricGridTest, EndpointsAndSpacing) {
  auto g = GeometricGrid(10, 10000, 4);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_NEAR(g[0], 10.0, 1e-9);
  EXPECT_NEAR(g[3], 10000.0, 1e-6);
  // Constant ratio.
  EXPECT_NEAR(g[1] / g[0], g[2] / g[1], 1e-9);
}

TEST(GeometricGridTest, SinglePointIsGeometricMean) {
  auto g = GeometricGrid(10, 1000, 1);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_NEAR(g[0], 100.0, 1e-9);
}

TEST(WideningRangesTest, PaperFamily) {
  auto rs = WideningRanges(ConstraintMetric::kCardinality, 1000);
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_DOUBLE_EQ(rs[0].lo, 1000);
  EXPECT_DOUBLE_EQ(rs[0].hi, 2000);
  EXPECT_DOUBLE_EQ(rs[3].hi, 8000);
  for (const Constraint& c : rs) {
    EXPECT_EQ(c.kind, ConstraintKind::kRange);
  }
}

TEST(SplitIntoTasksTest, ContiguousCover) {
  MetricDomain d{0, 10000};
  auto tasks = SplitIntoTasks(ConstraintMetric::kCardinality, d, 5);
  ASSERT_EQ(tasks.size(), 5u);
  EXPECT_DOUBLE_EQ(tasks[0].lo, 0);
  EXPECT_DOUBLE_EQ(tasks[0].hi, 2000);
  EXPECT_DOUBLE_EQ(tasks[4].hi, 10000);
  for (size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(tasks[i].lo, tasks[i - 1].hi);
  }
}

TEST(PointGridTest, WithinDomain) {
  MetricDomain d{10, 100000};
  auto pts = PointGrid(ConstraintMetric::kCost, d, 4);
  ASSERT_EQ(pts.size(), 4u);
  for (const Constraint& c : pts) {
    EXPECT_EQ(c.kind, ConstraintKind::kPoint);
    EXPECT_GE(c.point, d.lo * 0.999);
    EXPECT_LE(c.point, d.hi * 1.001);
  }
}

// ----------------------------------------------------------- environment

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildScoreStudentDb();
    stats_ = DatabaseStats::Collect(db_);
    est_ = std::make_unique<CardinalityEstimator>(&db_, &stats_);
    cost_ = std::make_unique<CostModel>(est_.get());
    VocabularyOptions vo;
    vo.values_per_column = 8;
    auto v = Vocabulary::Build(db_, vo);
    ASSERT_TRUE(v.ok());
    vocab_ = std::move(v).value();
  }

  std::unique_ptr<SqlGenEnvironment> MakeEnv(Constraint c) {
    EnvironmentOptions eo;
    return std::make_unique<SqlGenEnvironment>(&db_, &*vocab_, est_.get(),
                                               cost_.get(), c, eo);
  }

  int score() { return db_.catalog().FindTable("Score"); }

  Database db_;
  DatabaseStats stats_;
  std::unique_ptr<CardinalityEstimator> est_;
  std::unique_ptr<CostModel> cost_;
  std::optional<Vocabulary> vocab_;
};

TEST_F(EnvTest, StepRewardsFollowExecutability) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 25, 35));
  env->Reset();
  // FROM Score: not executable yet -> reward 0.
  auto r = env->Step(vocab_->keyword_id(Keyword::kFrom));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->reward, 0.0);
  r = env->Step(vocab_->table_token_id(score()));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->executable);
  r = env->Step(vocab_->keyword_id(Keyword::kSelect));
  ASSERT_TRUE(r.ok());
  // SELECT Score.SID FROM Score -> 30 rows, inside [25, 35] -> reward 1.
  r = env->Step(vocab_->column_token_id(score(), 0));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->executable);
  EXPECT_DOUBLE_EQ(r->reward, 1.0);
  EXPECT_TRUE(r->satisfied);
  EXPECT_FALSE(r->done);
  r = env->Step(vocab_->eof_id());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->done);
  EXPECT_TRUE(r->satisfied);
  EXPECT_NEAR(r->metric, 30.0, 1e-6);
}

TEST_F(EnvTest, CostMetricUsesCostModel) {
  auto env = MakeEnv(Constraint::Point(ConstraintMetric::kCost, 1.0));
  env->Reset();
  ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  ASSERT_TRUE(env->Step(vocab_->table_token_id(score())).ok());
  ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  auto r = env->Step(vocab_->column_token_id(score(), 0));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->metric, 0.0);
  EXPECT_NE(r->metric, 30.0);  // cost, not cardinality
}

TEST_F(EnvTest, FeedbackCallCounting) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 100));
  env->Reset();
  int64_t before = env->feedback_calls();
  ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  EXPECT_EQ(env->feedback_calls(), before);  // not executable, no feedback
  ASSERT_TRUE(env->Step(vocab_->table_token_id(score())).ok());
  ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  ASSERT_TRUE(env->Step(vocab_->column_token_id(score(), 0)).ok());
  EXPECT_GT(env->feedback_calls(), before);
}

TEST_F(EnvTest, TrueExecutionFeedbackIsExact) {
  EnvironmentOptions eo;
  eo.feedback = FeedbackSource::kTrueExecution;
  SqlGenEnvironment env(&db_, &*vocab_, est_.get(), cost_.get(),
                        Constraint::Range(ConstraintMetric::kCardinality, 25, 35),
                        eo);
  env.Reset();
  ASSERT_TRUE(env.Step(vocab_->keyword_id(Keyword::kFrom)).ok());
  ASSERT_TRUE(env.Step(vocab_->table_token_id(score())).ok());
  ASSERT_TRUE(env.Step(vocab_->keyword_id(Keyword::kSelect)).ok());
  auto r = env.Step(vocab_->column_token_id(score(), 0));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->metric, 30.0);  // exact, not estimated
}

// True execution is memoized per environment, keyed by the actions since
// Reset(). Queries that differ only in their last token — here the literal
// of a WHERE predicate — must not share an entry: a key that dropped the
// last action would replay the first literal's answer for all the others.
TEST_F(EnvTest, ExecutionMemoKeysOnEveryAction) {
  EnvironmentOptions eo;
  eo.feedback = FeedbackSource::kTrueExecution;
  SqlGenEnvironment env(
      &db_, &*vocab_, est_.get(), cost_.get(),
      Constraint::Range(ConstraintMetric::kCardinality, 1, 100), eo);
  // FROM Score SELECT Score.SID WHERE, then the first legal column, then
  // the first legal operator, until the mask offers predicate literals.
  std::vector<int> prefix = {vocab_->keyword_id(Keyword::kFrom),
                             vocab_->table_token_id(score()),
                             vocab_->keyword_id(Keyword::kSelect),
                             vocab_->column_token_id(score(), 0),
                             vocab_->keyword_id(Keyword::kWhere)};
  env.Reset();
  for (int a : prefix) ASSERT_TRUE(env.Step(a).ok());
  std::vector<int> literals;
  for (int guard = 0; guard < 8 && literals.empty(); ++guard) {
    const std::vector<uint8_t>& mask = env.ValidActions().bytes;
    int next = -1;
    std::vector<int> values;
    for (int id = 0; id < vocab_->size(); ++id) {
      if (mask[id] == 0) continue;
      const TokenKind kind = vocab_->token(id).kind;
      if (kind == TokenKind::kValue) values.push_back(id);
      if (next < 0 &&
          (kind == TokenKind::kColumn || kind == TokenKind::kOperator)) {
        next = id;
      }
    }
    if (values.size() >= 2) {
      literals = values;
      break;
    }
    ASSERT_GE(next, 0);
    ASSERT_TRUE(env.Step(next).ok());
    prefix.push_back(next);
  }
  ASSERT_GE(literals.size(), 2u);

  // Each query's step metric must be its own execution, on the first run
  // (a miss) and on the second (a hit) alike.
  std::set<double> distinct;
  for (int round = 0; round < 2; ++round) {
    for (int literal : literals) {
      env.Reset();
      for (int a : prefix) ASSERT_TRUE(env.Step(a).ok());
      auto r = env.Step(literal);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r->executable);
      const double truth = env.MetricOf(env.fsm().builder().ast());
      EXPECT_EQ(r->metric, truth) << vocab_->token(literal).text;
      distinct.insert(truth);
    }
  }
  EXPECT_GE(distinct.size(), 2u);  // the literals really change the answer
}

TEST_F(EnvTest, TelemetryBaselinesResetWhileObsDisabled) {
  // Regression: Reset() used to skip the per-episode telemetry baselines
  // unless obs::Enabled(), so turning observability on mid-run attributed
  // every feedback call since construction — and wall time since an
  // arbitrary epoch — to the first recorded episode.
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 100));
  auto run_episode = [&] {
    env->Reset();
    ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kFrom)).ok());
    ASSERT_TRUE(env->Step(vocab_->table_token_id(score())).ok());
    ASSERT_TRUE(env->Step(vocab_->keyword_id(Keyword::kSelect)).ok());
    ASSERT_TRUE(env->Step(vocab_->column_token_id(score(), 0)).ok());
    ASSERT_TRUE(env->Step(vocab_->eof_id()).ok());
  };

  obs::SetEnabled(false);
  run_episode();  // accumulates feedback calls with obs off
  const int64_t calls_before = env->feedback_calls();
  ASSERT_GT(calls_before, 0);

  std::string path =
      (std::filesystem::temp_directory_path() / "lsg_core_telemetry.jsonl")
          .string();
  std::filesystem::remove(path);
  {
    obs::EpisodeTelemetry sink(path);
    ASSERT_TRUE(sink.ok());
    obs::SetEnabled(true);
    obs::SetEpisodeSink(&sink);
    run_episode();  // the only episode that should be in the row
    obs::SetEpisodeSink(nullptr);
    obs::SetEnabled(false);
  }

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto row = obs::JsonParse(line);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  // Exactly the second episode's two feedback evaluations (the executable
  // prefix and the completed query), none of the first episode's.
  EXPECT_DOUBLE_EQ(row->NumberOr("estimator_calls", -1),
                   static_cast<double>(env->feedback_calls() - calls_before));
  // Wall time measured from this episode's Reset(), not from an epoch.
  EXPECT_GE(row->NumberOr("wall_seconds", -1), 0.0);
  EXPECT_LT(row->NumberOr("wall_seconds", -1), 60.0);
  std::filesystem::remove(path);
}

TEST_F(EnvTest, ProbeMetricDomainOrdered) {
  auto env = MakeEnv(Constraint::Range(ConstraintMetric::kCardinality, 1, 10));
  Rng rng(77);
  MetricDomain d = ProbeMetricDomain(env.get(), 200, &rng);
  EXPECT_GE(d.lo, 1.0);
  EXPECT_GT(d.hi, d.lo);
}

// Fixed-seed pin of the domain probe exactly as the end-to-end benchmark
// runs it to place its constraint grid: TPC-H at row scale 1, the default
// vocabulary and profile, Rng(7), 400 walks per metric, quantiles 0.2 and
// 0.95, cardinality first.
TEST(ProbeMetricDomainTest, TpchFixedSeedDomainsUnchanged) {
  Database db = BuildTpchLike(DatasetScale());
  LearnedSqlGenOptions opts;
  auto context = LearnedSqlGen::CreateContext(&db, opts);
  ASSERT_TRUE(context.ok());
  EnvironmentOptions eo;
  eo.profile = opts.profile;
  Rng rng(7);
  MetricDomain d[2];
  for (int m = 0; m < 2; ++m) {
    SqlGenEnvironment probe(
        **context,
        Constraint::Point(m == 0 ? ConstraintMetric::kCardinality
                                 : ConstraintMetric::kCost,
                          1),
        eo);
    d[m] = ProbeMetricDomain(&probe, 400, &rng, 0.2, 0.95);
  }
  EXPECT_EQ(d[0].lo, 1.2);
  EXPECT_EQ(d[0].hi, 3000.0);
  EXPECT_EQ(d[1].lo, 7.0984749999999996);
  EXPECT_EQ(d[1].hi, 386.63420702698716);
}

// ------------------------------------------------------------- workload

TEST(FeaturesTest, SelectFeatures) {
  QueryAst ast;
  ast.type = QueryType::kSelect;
  ast.select = std::make_unique<SelectQuery>();
  ast.select->tables = {0, 1};
  ast.select->items.push_back({AggFunc::kMax, {0, 0}});
  Predicate p;
  p.kind = PredicateKind::kInSub;
  p.subquery = std::make_unique<SelectQuery>();
  ast.select->where.predicates.push_back(std::move(p));
  QueryFeatures f = FeaturesOf(ast, 12);
  EXPECT_EQ(f.type, QueryType::kSelect);
  EXPECT_EQ(f.num_tables, 2);
  EXPECT_TRUE(f.nested);
  EXPECT_TRUE(f.has_aggregate);
  EXPECT_EQ(f.num_predicates, 1);
  EXPECT_EQ(f.num_tokens, 12);
}

TEST(FeaturesTest, DmlFeatures) {
  QueryAst ast;
  ast.type = QueryType::kDelete;
  ast.del = std::make_unique<DeleteQuery>();
  ast.del->table_idx = 0;
  Predicate p;
  ast.del->where.predicates.push_back(std::move(p));
  QueryFeatures f = FeaturesOf(ast, 6);
  EXPECT_EQ(f.type, QueryType::kDelete);
  EXPECT_EQ(f.num_predicates, 1);
  EXPECT_FALSE(f.nested);
}

TEST(WorkloadDistributionTest, Aggregates) {
  WorkloadDistribution dist;
  QueryFeatures a;
  a.num_tables = 1;
  a.num_tokens = 7;
  QueryFeatures b;
  b.num_tables = 3;
  b.nested = true;
  b.has_aggregate = true;
  b.num_predicates = 2;
  b.num_tokens = 22;
  dist.Add(a);
  dist.Add(b);
  EXPECT_EQ(dist.total(), 2);
  EXPECT_DOUBLE_EQ(dist.MultiJoinFraction(), 0.5);
  EXPECT_DOUBLE_EQ(dist.NestedFraction(), 0.5);
  EXPECT_DOUBLE_EQ(dist.AggregateFraction(), 0.5);
  EXPECT_EQ(dist.predicate_histogram().at(0), 1);
  EXPECT_EQ(dist.predicate_histogram().at(2), 1);
  EXPECT_EQ(dist.token_length_histogram().at(5), 1);
  EXPECT_EQ(dist.token_length_histogram().at(20), 1);
  EXPECT_FALSE(dist.ToString().empty());
}

TEST(WorkloadDistributionTest, EmptyIsSafe) {
  WorkloadDistribution dist;
  EXPECT_DOUBLE_EQ(dist.MultiJoinFraction(), 0.0);
  EXPECT_DOUBLE_EQ(dist.NestedFraction(), 0.0);
  EXPECT_EQ(dist.total(), 0);
}

// ------------------------------------------------------------- generator

TEST(GeneratorTest, CreateRejectsEmptyDb) {
  Database empty;
  auto gen = LearnedSqlGen::Create(&empty, LearnedSqlGenOptions());
  EXPECT_FALSE(gen.ok());
  EXPECT_FALSE(LearnedSqlGen::Create(nullptr, LearnedSqlGenOptions()).ok());
}

// The pipeline never feeds extra constraint features, so a net that
// expects them (AC-extend) is refused up front rather than served with a
// silently zero feature tail.
TEST(GeneratorTest, CreateRejectsExtraInputDims) {
  Database db = BuildScoreStudentDb();
  LearnedSqlGenOptions opts;
  opts.trainer.net.extra_input_dims = 2;
  auto gen = LearnedSqlGen::Create(&db, opts);
  EXPECT_EQ(gen.status().code(), StatusCode::kInvalidArgument);
}

TEST(GeneratorTest, CreateRejectsBatchSizeBelowOne) {
  // An epoch over zero episodes would average to NaN stats.
  Database db = BuildScoreStudentDb();
  for (int batch : {0, -1}) {
    LearnedSqlGenOptions opts;
    opts.trainer.batch_size = batch;
    EXPECT_EQ(LearnedSqlGen::Create(&db, opts).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(LearnedSqlGen::CreateContext(&db, opts).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(GeneratorTest, GenerateBeforeTrainFails) {
  Database db = BuildScoreStudentDb();
  auto gen = LearnedSqlGen::Create(&db, LearnedSqlGenOptions());
  ASSERT_TRUE(gen.ok());
  auto rep = (*gen)->GenerateBatch(5);
  EXPECT_EQ(rep.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GeneratorTest, TrainThenGenerateBatch) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 10;
  opts.trainer.batch_size = 4;
  opts.vocab.values_per_column = 8;
  auto gen = LearnedSqlGen::Create(ScoreContext(opts), opts);
  ASSERT_TRUE(gen.ok());
  Constraint c = Constraint::Range(ConstraintMetric::kCardinality, 5, 50);
  ASSERT_TRUE((*gen)->Train(c).ok());
  EXPECT_EQ((*gen)->trace().size(), 10u);
  auto rep = (*gen)->GenerateBatch(20);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->attempts, 20);
  EXPECT_EQ(rep->queries.size(), 20u);
  EXPECT_GE(rep->accuracy, 0.0);
  EXPECT_LE(rep->accuracy, 1.0);
  for (const GeneratedQuery& q : rep->queries) {
    EXPECT_FALSE(q.sql.empty());
  }
}

TEST(GeneratorTest, GenerateSatisfiedStopsAtTarget) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 25;
  opts.trainer.batch_size = 4;
  opts.vocab.values_per_column = 8;
  opts.attempts_factor = 100;
  auto gen = LearnedSqlGen::Create(ScoreContext(opts), opts);
  ASSERT_TRUE(gen.ok());
  // Easy constraint: almost everything under 100 rows.
  Constraint c = Constraint::Range(ConstraintMetric::kCardinality, 1, 100);
  ASSERT_TRUE((*gen)->Train(c).ok());
  auto rep = (*gen)->GenerateSatisfied(5);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->satisfied, 5);
  EXPECT_EQ(rep->queries.size(), 5u);
  for (const GeneratedQuery& q : rep->queries) {
    EXPECT_TRUE(q.satisfied);
    EXPECT_GE(q.metric, 1.0);
    EXPECT_LE(q.metric, 100.0);
  }
  EXPECT_GT(rep->train_seconds, 0.0);
}

// A context holds nothing profile-specific, so one context serves
// pipelines under any profile, and each trains and decodes bitwise what
// the same pipeline over a private context does.
TEST(GeneratorTest, OneContextServesEveryProfile) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 8;
  opts.trainer.batch_size = 4;
  opts.vocab.values_per_column = 8;
  opts.trainer.seed = 31;
  auto context = LearnedSqlGen::CreateContext(&SharedScoreDb(), opts);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  const Constraint c = Constraint::Range(ConstraintMetric::kCardinality, 5, 50);
  for (const QueryProfile& profile :
       {QueryProfile(), QueryProfile::SpjOnly()}) {
    opts.profile = profile;
    auto shared = LearnedSqlGen::Create(*context, opts);
    auto solo = LearnedSqlGen::Create(&SharedScoreDb(), opts);
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    EXPECT_EQ(&(*shared)->vocab(), &(*context)->vocab());
    EXPECT_NE(&(*solo)->vocab(), &(*context)->vocab());
    ASSERT_TRUE((*shared)->Train(c).ok());
    ASSERT_TRUE((*solo)->Train(c).ok());
    ASSERT_EQ((*shared)->trace().size(), (*solo)->trace().size());
    for (size_t e = 0; e < (*solo)->trace().size(); ++e) {
      EXPECT_EQ(
          std::bit_cast<uint64_t>((*shared)->trace()[e].mean_total_reward),
          std::bit_cast<uint64_t>((*solo)->trace()[e].mean_total_reward));
    }
    Rng shared_rng(42), solo_rng(42);
    auto got = (*shared)->GenerateBatch(6, &shared_rng);
    auto want = (*solo)->GenerateBatch(6, &solo_rng);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->queries.size(), want->queries.size());
    for (size_t q = 0; q < want->queries.size(); ++q) {
      EXPECT_EQ(got->queries[q].sql, want->queries[q].sql);
      EXPECT_EQ(std::bit_cast<uint64_t>(got->queries[q].metric),
                std::bit_cast<uint64_t>(want->queries[q].metric));
    }
  }
}

// Execution-grounded training memoizes true execution per environment: a
// prefix the environment has already executed replays its first answer
// instead of running again. Under LSG_CHECK_INCREMENTAL=1 (the
// core_test_check_incremental ctest) every hit also re-executes and aborts
// unless the two values are bit-equal.
TEST(GeneratorTest, TrueFeedbackTailHitsTheExecutionMemo) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 10;
  opts.trainer.batch_size = 4;
  opts.vocab.values_per_column = 8;
  opts.true_feedback_tail = 0.5;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  for (ConstraintMetric metric :
       {ConstraintMetric::kCardinality, ConstraintMetric::kCost}) {
    auto gen = LearnedSqlGen::Create(ScoreContext(opts), opts);
    ASSERT_TRUE(gen.ok());
    const uint64_t hits = reg.GetCounter("opt.cache.hits").Value();
    const uint64_t misses = reg.GetCounter("opt.cache.misses").Value();
    const uint64_t calls = reg.GetCounter("env.true_feedback_calls").Value();
    obs::SetEnabled(true);
    const Status trained = (*gen)->Train(Constraint::Range(metric, 5, 50));
    obs::SetEnabled(false);
    ASSERT_TRUE(trained.ok()) << trained.ToString();
    const uint64_t new_hits = reg.GetCounter("opt.cache.hits").Value() - hits;
    const uint64_t new_misses =
        reg.GetCounter("opt.cache.misses").Value() - misses;
    EXPECT_GT(new_hits, 0u);
    EXPECT_GT(new_misses, 0u);
    // env.true_feedback_calls counts requests, hits included (score has
    // no DML under the default profile, so every request is measured).
    EXPECT_EQ(reg.GetCounter("env.true_feedback_calls").Value() - calls,
              new_hits + new_misses);
  }
}

// The pipeline trains critic-free: Train is exactly a
// PolicyGradientTrainer(with_critic = false) driven for train_epochs epochs,
// then rolled back to its best actor, whose sampling stream the
// parameterless Generate* continue.
TEST(GeneratorTest, TrainMatchesCriticFreeTrainerFixedSeed) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 5;
  opts.trainer.batch_size = 4;
  opts.trainer.seed = 77;
  opts.vocab.values_per_column = 8;
  const Constraint c = Constraint::Range(ConstraintMetric::kCardinality, 1, 50);
  const std::shared_ptr<const DatabaseContext> context = ScoreContext(opts);
  auto gen = LearnedSqlGen::Create(context, opts);
  ASSERT_TRUE(gen.ok());
  ASSERT_TRUE((*gen)->Train(c).ok());

  EnvironmentOptions env_opts;
  env_opts.profile = opts.profile;
  env_opts.feedback = opts.feedback;
  env_opts.dense_partial_rewards = opts.dense_partial_rewards;
  SqlGenEnvironment env(*context, c, env_opts);
  PolicyGradientTrainer trainer(&env, opts.trainer, /*with_critic=*/false);
  std::vector<EpochStats> trace;
  for (int e = 0; e < opts.train_epochs; ++e) {
    auto st = trainer.TrainEpoch();
    ASSERT_TRUE(st.ok());
    trace.push_back(*st);
  }
  ASSERT_TRUE(trainer.RestoreBestActor());

  const std::vector<EpochStats>& got = (*gen)->trace();
  ASSERT_EQ(got.size(), trace.size());
  for (size_t e = 0; e < trace.size(); ++e) {
    EXPECT_EQ(got[e].episodes, trace[e].episodes) << "epoch " << e;
    EXPECT_EQ(got[e].mean_total_reward, trace[e].mean_total_reward)
        << "epoch " << e;
    EXPECT_EQ(got[e].mean_final_reward, trace[e].mean_final_reward)
        << "epoch " << e;
    EXPECT_EQ(got[e].mean_entropy, trace[e].mean_entropy) << "epoch " << e;
    EXPECT_EQ(got[e].satisfied_frac, trace[e].satisfied_frac) << "epoch " << e;
  }

  const std::vector<const ParamTensor*> served =
      std::as_const(*(*gen)->snapshot()->actor).Params();
  const std::vector<ParamTensor*> want = trainer.actor().Params();
  ASSERT_EQ(served.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const Matrix& a = served[i]->value();
    const Matrix& b = want[i]->value();
    ASSERT_EQ(a.size(), b.size()) << "tensor " << i;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "tensor " << i;
  }

  ServingSnapshot snap;
  snap.context = context;
  snap.actor = trainer.ReleaseActor();
  snap.env_opts = env_opts;
  snap.constraint = c;
  auto want_rep = Decode(snap, c, 1, /*batch=*/true, trainer.sampling_rng());
  ASSERT_TRUE(want_rep.ok());
  auto got_rep = (*gen)->GenerateBatch(1);
  ASSERT_TRUE(got_rep.ok());
  ASSERT_EQ(got_rep->queries.size(), 1u);
  ASSERT_EQ(want_rep->queries.size(), 1u);
  EXPECT_EQ(got_rep->queries[0].sql, want_rep->queries[0].sql);
}

// Every epoch records one span pair, whatever the trainer: Train emits
// exactly train_epochs "rl.ac_epoch" spans and no "rl.reinforce_*" span.
TEST(GeneratorTest, TrainRecordsOneEpochSpanPerEpoch) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 6;
  opts.trainer.batch_size = 2;
  opts.vocab.values_per_column = 8;
  auto gen = LearnedSqlGen::Create(ScoreContext(opts), opts);
  ASSERT_TRUE(gen.ok());
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Clear();
  obs::SetEnabled(true);
  const Status trained =
      (*gen)->Train(Constraint::Range(ConstraintMetric::kCardinality, 1, 50));
  obs::SetEnabled(false);
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  ASSERT_LE(tracer.total_recorded(), tracer.capacity());
  int epochs = 0, updates = 0, reinforce = 0;
  for (const obs::SpanTracer::Span& span : tracer.Snapshot()) {
    const std::string name = span.name;
    if (name == "rl.ac_epoch") ++epochs;
    if (name == "rl.ac_update") ++updates;
    if (name.rfind("rl.reinforce", 0) == 0) ++reinforce;
  }
  tracer.Clear();
  EXPECT_EQ(epochs, opts.train_epochs);
  EXPECT_EQ(updates, opts.train_epochs);
  EXPECT_EQ(reinforce, 0);
}

// The actor's weight draw is its own span: one Train records exactly one
// "rl.init", inside "gen.train" and before the first epoch, so a
// training's breakdown accounts for it.
TEST(GeneratorTest, TrainRecordsOneInitSpan) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = 2;
  opts.trainer.batch_size = 2;
  opts.vocab.values_per_column = 8;
  auto gen = LearnedSqlGen::Create(ScoreContext(opts), opts);
  ASSERT_TRUE(gen.ok());
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Clear();
  obs::SetEnabled(true);
  const Status trained =
      (*gen)->Train(Constraint::Range(ConstraintMetric::kCardinality, 1, 50));
  obs::SetEnabled(false);
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  ASSERT_LE(tracer.total_recorded(), tracer.capacity());
  std::vector<obs::SpanTracer::Span> inits, trains, epochs;
  for (const obs::SpanTracer::Span& span : tracer.Snapshot()) {
    const std::string name = span.name;
    if (name == "rl.init") inits.push_back(span);
    if (name == "gen.train") trains.push_back(span);
    if (name == "rl.ac_epoch") epochs.push_back(span);
  }
  tracer.Clear();
  ASSERT_EQ(inits.size(), 1u);
  ASSERT_EQ(trains.size(), 1u);
  ASSERT_FALSE(epochs.empty());
  const uint64_t init_end = inits[0].start_ns + inits[0].duration_ns;
  EXPECT_GE(inits[0].start_ns, trains[0].start_ns);
  EXPECT_LE(init_end, trains[0].start_ns + trains[0].duration_ns);
  for (const obs::SpanTracer::Span& e : epochs) {
    EXPECT_LE(init_end, e.start_ns);
  }
}

}  // namespace
}  // namespace lsg
