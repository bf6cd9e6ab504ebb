// The fuzzing subsystem's own test suite: trace serialization, recorded
// walks and replay, delta-debug shrinking, the oracle stack (including the
// render→parse→render fixpoint and DML apply/rollback properties), and a
// smoke of the service fuzzer. The harness is also mutation-tested here: a
// fuzz run with an injected engine bug must catch it, shrink it, and
// reproduce it from the trace alone.
#include <gtest/gtest.h>

#include "core/workload.h"
#include "fsm/generation_fsm.h"
#include "fuzz/fuzzer.h"
#include "fuzz/oracle.h"
#include "fuzz/reference_eval.h"
#include "fuzz/service_fuzz.h"
#include "fuzz/shrinker.h"
#include "fuzz/test_databases.h"
#include "fuzz/trace.h"
#include "sql/parser.h"
#include "sql/render.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

// ------------------------------------------------------------ databases

TEST(TestDatabasesTest, BuildNamedDatabaseKnowsEveryBundledDataset) {
  for (const std::string& name : FuzzDatasetNames()) {
    auto db = BuildNamedDatabase(name, 0.05);
    ASSERT_TRUE(db.ok()) << name;
    EXPECT_GT(db->tables().size(), 0u) << name;
  }
  // Benchmark aliases used by the bench suite resolve too.
  EXPECT_TRUE(BuildNamedDatabase("TPC-H", 0.05).ok());
  EXPECT_TRUE(BuildNamedDatabase("JOB", 0.05).ok());
  EXPECT_TRUE(BuildNamedDatabase("XueTang", 0.05).ok());
  EXPECT_FALSE(BuildNamedDatabase("nope").ok());
}

// ---------------------------------------------------------------- trace

TEST(TraceTest, SerializationRoundTrips) {
  EpisodeTrace t;
  t.dataset = "tpch";
  t.profile = 3;
  t.scale = 0.25;
  t.values_per_column = 12;
  t.seed = 0xDEADBEEFCAFEull;
  t.episode = 42;
  t.oracle = "exec-vs-ref";
  t.detail = "executor=3 reference=2\nwith a newline";
  t.sql = "SELECT 1";
  t.actions = {5, 0, 17, 3};

  auto parsed = ParseTrace(TraceToString(t));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->dataset, t.dataset);
  EXPECT_EQ(parsed->profile, t.profile);
  EXPECT_DOUBLE_EQ(parsed->scale, t.scale);
  EXPECT_EQ(parsed->values_per_column, t.values_per_column);
  EXPECT_EQ(parsed->seed, t.seed);
  EXPECT_EQ(parsed->episode, t.episode);
  EXPECT_EQ(parsed->oracle, t.oracle);
  // Free-text fields are flattened to one line on write.
  EXPECT_EQ(parsed->detail, "executor=3 reference=2 with a newline");
  EXPECT_EQ(parsed->sql, t.sql);
  EXPECT_EQ(parsed->actions, t.actions);
}

TEST(TraceTest, ParseRejectsGarbageButSkipsUnknownKeys) {
  EXPECT_FALSE(ParseTrace("not a trace").ok());
  auto t = ParseTrace(
      "lsgfuzz-trace v1\ndataset score\nfuture_key whatever\n"
      "actions 1 2 3\nend\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->dataset, "score");
  EXPECT_EQ(t->actions, (std::vector<int>{1, 2, 3}));
}

// ------------------------------------------------------ record & replay

// Fixed-seed pin of one recorded walk's action list on the Score/Student
// database under the full profile.
TEST(TraceTest, RecordedWalkFixedSeedActionsUnchanged) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  GenerationFsm fsm(&db, &*vocab, QueryProfile::Full());
  Rng rng(18);
  std::vector<int> actions;
  auto ast = RandomWalkQuery(&fsm, &rng, &actions);
  ASSERT_TRUE(ast.ok());
  EXPECT_EQ(actions,
            (std::vector<int>{1,  31, 0,  34, 10, 32, 7,  32, 2,  12,
                              22, 1,  35, 3,  31, 0,  32, 23, 14, 34,
                              13, 22, 1,  31, 0,  34, 23, 15, 34, 24,
                              68, 14, 33, 26, 54, 4,  34, 147}));
  EXPECT_EQ(RenderSql(*ast, db.catalog()),
            "SELECT Student.Gender, AVG(Student.ID), MAX(Student.ID) FROM "
            "Student WHERE EXISTS (SELECT Student.ID FROM Score JOIN Student "
            "ON Score.ID = Student.ID) AND Student.Gender IN (SELECT "
            "Student.Gender FROM Student) OR Student.Gender LIKE '%M%' AND "
            "Student.Name > 'Eve' GROUP BY Student.Gender");
}

TEST(TraceTest, RecordedWalkMatchesRandomWalkAndReplaysExactly) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  const QueryProfile profile = QueryProfile::Full();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    // Same Rng stream => recording the actions does not change the query.
    Rng rng_a(seed), rng_b(seed);
    GenerationFsm fsm_a(&db, &*vocab, profile);
    GenerationFsm fsm_b(&db, &*vocab, profile);
    auto plain = RandomWalkQuery(&fsm_a, &rng_a);
    std::vector<int> actions;
    auto recorded = RandomWalkQuery(&fsm_b, &rng_b, &actions);
    ASSERT_TRUE(plain.ok() && recorded.ok());
    EXPECT_EQ(RenderSql(*plain, db.catalog()),
              RenderSql(*recorded, db.catalog()));
    EXPECT_FALSE(actions.empty());

    // Replaying the recorded actions reproduces the query byte-for-byte,
    // with no repair needed.
    GenerationFsm fsm_c(&db, &*vocab, profile);
    bool exact = false;
    auto replayed = ReplayActions(&fsm_c, actions, &exact);
    ASSERT_TRUE(replayed.ok());
    EXPECT_TRUE(exact);
    EXPECT_EQ(RenderSql(*recorded, db.catalog()),
              RenderSql(*replayed, db.catalog()));
  }
}

TEST(TraceTest, ReplayRepairsArbitraryActionSubsequences) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  // Garbage action ids must still produce a legal query via repair: the
  // shrinker depends on every subsequence being replayable.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    std::vector<int> garbage;
    for (int i = 0; i < 20; ++i) {
      garbage.push_back(static_cast<int>(rng.Uniform(1000)));
    }
    GenerationFsm fsm(&db, &*vocab, QueryProfile::Full());
    auto ast = ReplayActions(&fsm, garbage, nullptr);
    ASSERT_TRUE(ast.ok()) << ast.status().ToString();
    vexec::VectorizedEngine exec(&db);
    EXPECT_TRUE(exec.Cardinality(*ast).ok())
        << RenderSql(*ast, db.catalog());
  }
}

// ------------------------------------------------------------- shrinker

TEST(ShrinkerTest, MinimizesToThePredicateCore) {
  // Failing iff the trace contains both 7 and 13: ddmin must strip all
  // filler and keep exactly those two.
  std::vector<int> trace = {1, 2, 7, 3, 4, 5, 13, 6, 8, 9, 10, 11, 12};
  auto fails = [](const std::vector<int>& t) {
    bool has7 = false, has13 = false;
    for (int v : t) {
      if (v == 7) has7 = true;
      if (v == 13) has13 = true;
    }
    return has7 && has13;
  };
  ShrinkResult r = ShrinkTrace(trace, fails);
  EXPECT_EQ(r.actions, (std::vector<int>{7, 13}));
  EXPECT_EQ(r.removed, 11);
  EXPECT_GT(r.probes, 0);
}

TEST(ShrinkerTest, AlreadyMinimalTraceIsUntouched) {
  std::vector<int> trace = {42};
  ShrinkResult r = ShrinkTrace(trace, [](const std::vector<int>& t) {
    return !t.empty();
  });
  EXPECT_EQ(r.actions, trace);
  EXPECT_EQ(r.removed, 0);
}

// ------------------------------------------------- oracle: clean engine

TEST(OracleTest, CleanEngineSurvivesRandomEpisodes) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  DifferentialOracle oracle(&db);
  GenerationFsm fsm(&db, &*vocab, QueryProfile::Full());
  Rng rng(2024);
  for (int i = 0; i < 100; ++i) {
    auto ast = RandomWalkQuery(&fsm, &rng);
    ASSERT_TRUE(ast.ok());
    auto v = oracle.Check(*ast);
    EXPECT_FALSE(v.has_value())
        << "[" << v->oracle << "] " << v->detail;
  }
}

// Clean random episodes stay violation-free under every statement class:
// param 0 walks the Full profile, 1 SPJ only and 2 DML only.
class ProfileEpisodes : public ::testing::TestWithParam<int> {};

TEST_P(ProfileEpisodes, CleanEpisodesSurviveEveryOracle) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  QueryProfile profile = QueryProfile::Full();
  if (GetParam() == 1) {
    profile = QueryProfile::SpjOnly();
  } else if (GetParam() == 2) {
    profile = QueryProfile();
    profile.allow_select = false;
    profile.allow_insert = true;
    profile.allow_update = true;
    profile.allow_delete = true;
  }

  DifferentialOracle oracle(&db);
  GenerationFsm fsm(&db, &*vocab, profile);
  Rng rng(2025 + GetParam());
  for (int i = 0; i < 40; ++i) {
    fsm.Reset();
    std::vector<int> actions;
    auto ast = RandomWalkQuery(&fsm, &rng, &actions);
    ASSERT_TRUE(ast.ok());
    auto v = oracle.Check(*ast);
    EXPECT_FALSE(v.has_value()) << "[" << v->oracle << "] " << v->detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ProfileEpisodes, ::testing::Range(0, 3));

// Render → Parse → Render must be a byte-for-byte fixpoint for every
// generated statement class (the property behind the roundtrip oracle).
TEST(OracleTest, RenderParseRenderIsAFixpoint) {
  for (const std::string& name : FuzzDatasetNames()) {
    auto db = BuildNamedDatabase(name, 0.05);
    ASSERT_TRUE(db.ok());
    auto vocab = Vocabulary::Build(*db, VocabularyOptions());
    ASSERT_TRUE(vocab.ok());
    GenerationFsm fsm(&*db, &*vocab, QueryProfile::Full());
    Rng rng(77);
    for (int i = 0; i < 100; ++i) {
      auto ast = RandomWalkQuery(&fsm, &rng);
      ASSERT_TRUE(ast.ok());
      const std::string once = RenderSql(*ast, db->catalog());
      auto reparsed = ParseSql(once, db->catalog());
      ASSERT_TRUE(reparsed.ok()) << once << "\n"
                                 << reparsed.status().ToString();
      EXPECT_EQ(once, RenderSql(*reparsed, db->catalog()));
    }
  }
}

// DML episodes: the oracle applies INSERT/UPDATE/DELETE for real, then
// rolls back — the database must come back byte-identical every time.
TEST(OracleTest, DmlApplyAlwaysRollsBack) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  QueryProfile dml;
  dml.allow_select = false;
  dml.allow_insert = true;
  dml.allow_update = true;
  dml.allow_delete = true;

  // Fingerprint the whole database before fuzzing over it.
  auto fingerprint = [&db] {
    std::string fp;
    for (const Table& t : db.tables()) {
      for (size_t r = 0; r < t.num_rows(); ++r) {
        for (size_t c = 0; c < t.schema().num_columns(); ++c) {
          fp += t.GetValue(r, c).ToSqlLiteral();
          fp += '|';
        }
        fp += '\n';
      }
    }
    return fp;
  };
  const std::string before = fingerprint();

  DifferentialOracle oracle(&db);
  GenerationFsm fsm(&db, &*vocab, dml);
  Rng rng(31337);
  int dml_seen = 0;
  for (int i = 0; i < 150; ++i) {
    auto ast = RandomWalkQuery(&fsm, &rng);
    ASSERT_TRUE(ast.ok());
    if (ast->type != QueryType::kSelect) ++dml_seen;
    auto v = oracle.Check(*ast);
    EXPECT_FALSE(v.has_value())
        << "[" << v->oracle << "] " << v->detail << "\n"
        << RenderSql(*ast, db.catalog());
    ASSERT_EQ(fingerprint(), before)
        << "episode " << i << " leaked DML state: "
        << RenderSql(*ast, db.catalog());
  }
  EXPECT_GT(dml_seen, 100);  // the profile really is exercising DML
}

// ----------------------------------------- end-to-end: injected bug hunt

TEST(FuzzerTest, InjectedExecutorBugIsCaughtShrunkAndReplayable) {
  FuzzOptions opts;
  opts.datasets = {"score"};
  opts.episodes = 60;
  opts.seed = 7;
  opts.max_failures = 3;
  opts.oracle.inject_card_offset = 1;

  auto stats = RunFuzz(opts);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_FALSE(stats->failures.empty())
      << "harness failed to catch an injected off-by-one executor bug";
  for (const EpisodeTrace& f : stats->failures) {
    EXPECT_EQ(f.oracle, "vexec");
    // Shrinking happened and terminated at a 1-minimal trace.
    EXPECT_GT(stats->shrink_probes, 0);

    // The trace alone (header + actions) reproduces the same violation
    // after a serialization round trip, as `lsgfuzz --replay` would.
    auto reparsed = ParseTrace(TraceToString(f));
    ASSERT_TRUE(reparsed.ok());
    auto rerun = ReplayTraceEpisode(*reparsed, opts.oracle);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->oracle, "vexec");
    EXPECT_EQ(rerun->sql, f.sql);

    // Without the injected bug the same trace is clean — the failure is
    // the injection's, not the engine's.
    auto clean = ReplayTraceEpisode(*reparsed, OracleOptions());
    ASSERT_TRUE(clean.ok());
    EXPECT_TRUE(clean->oracle.empty()) << clean->detail;
  }
}

TEST(FuzzerTest, InjectedRendererBugTripsTheFixpointOracle) {
  FuzzOptions opts;
  opts.datasets = {"score"};
  opts.episodes = 20;
  opts.seed = 7;
  opts.max_failures = 1;
  opts.shrink = false;
  opts.oracle.inject_render_space = true;

  auto stats = RunFuzz(opts);
  ASSERT_TRUE(stats.ok());
  ASSERT_FALSE(stats->failures.empty());
  EXPECT_EQ(stats->failures[0].oracle, "render-fixpoint");
}

TEST(FuzzerTest, CleanRunOverEveryDatasetFindsNothing) {
  FuzzOptions opts;
  opts.episodes = 25;  // 25 per dataset; keep the suite fast
  opts.seed = 11;
  auto stats = RunFuzz(opts);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->episodes, 25u * FuzzDatasetNames().size());
  for (const EpisodeTrace& f : stats->failures) {
    ADD_FAILURE() << "[" << f.oracle << "] " << f.detail << "\n" << f.sql;
  }
}

// -------------------------------------------------------- service fuzz

TEST(ServiceFuzzTest, SmokeRoundsRunClean) {
  ServiceFuzzOptions opts;
  opts.rounds = 2;
  opts.requests_per_round = 6;
  opts.seed = 5;
  Status st = FuzzGenerationService(opts);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace lsg
