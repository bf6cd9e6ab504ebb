// Compiled-FSM table suite: the differential soundness harness keeping the
// table-driven fast path bitwise-equivalent to the interpreted FSM.
//
//  1. Exhaustive equivalence — BFS over the compiled state graph, replaying
//     each state's witness prefix on a fresh interpreted FSM and comparing
//     all three budget-regime masks byte for byte, plus transition totality
//     (every mask-legal token has an edge) and walk tracking (a
//     table-attached FSM replaying the witness lands exactly on the state).
//  2. Artifact lifecycle — save/load round trips byte for byte; corrupt or
//     foreign artifacts are rejected / recompiled, never trusted.
//  3. Mutation testing — both injectable table corruptions (mask bit,
//     transition swap) must be caught by the compiled-vs-interpreted
//     lockstep oracle, proving the harness has teeth.
//  4. Concurrency — one immutable table shared by many walking threads
//     (the fsm_tsan target runs this binary under TSan).
//
// Exhaustive sweeps over the big datasets are capped in tier-1 and run
// uncapped when LSG_EXHAUSTIVE_FSM is set (the nightly ctest entry).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database_context.h"
#include "core/environment.h"
#include "core/workload.h"
#include "fsm/compiled_fsm.h"
#include "fsm/generation_fsm.h"
#include "fuzz/oracle.h"
#include "fuzz/test_databases.h"
#include "fuzz/trace.h"
#include "sql/render.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

QueryProfile DmlProfile() {
  QueryProfile p;
  p.allow_select = false;
  p.allow_insert = true;
  p.allow_update = true;
  p.allow_delete = true;
  return p;
}

// 0 = sweep every state (nightly); tier-1 bounds the big datasets so the
// suite stays fast while still checking thousands of states per table.
uint32_t ExhaustiveCap() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read before threads start
  return std::getenv("LSG_EXHAUSTIVE_FSM") != nullptr ? 0u : 1500u;
}

// BFS over the compiled table itself, maintaining a witness action prefix
// per state (its BFS discovery path). For each visited state:
//   - replay the witness on a fresh interpreted FSM and compare the three
//     regime masks byte for byte (plus the precomputed widths);
//   - replay it on a table-attached FSM and assert it tracked to exactly
//     this state (validates transition composition along every discovery
//     edge);
//   - assert every token legal under any regime has a compiled edge.
// With cap == 0 the sweep also asserts the mask-legal edge relation
// reaches every compiled state (no orphans in the artifact).
void CheckTableAgainstInterpreter(const Database& db, const Vocabulary& vocab,
                                  const QueryProfile& profile,
                                  const CompiledFsmTable& table,
                                  uint32_t cap) {
  const uint32_t n = table.num_states();
  std::vector<uint8_t> visited(n, 0);
  std::vector<uint32_t> parent(n, 0);
  std::vector<int> via(n, -1);
  std::vector<uint32_t> order;
  order.reserve(n);
  visited[table.start_state()] = 1;
  order.push_back(table.start_state());
  const uint32_t limit = cap == 0 ? n : std::min(n, cap);
  uint32_t checked = 0;

  for (size_t qi = 0; qi < order.size() && checked < limit; ++qi, ++checked) {
    const uint32_t s = order[qi];
    std::vector<int> prefix;
    for (uint32_t cur = s; cur != table.start_state(); cur = parent[cur]) {
      prefix.push_back(via[cur]);
    }
    std::reverse(prefix.begin(), prefix.end());

    if (s == table.accept_state()) {
      // Terminal: empty masks in every regime, no outgoing edges.
      for (int r = 0; r < kNumBudgetRegimes; ++r) {
        EXPECT_EQ(table.MaskWidth(s, r), 0);
      }
      continue;
    }

    GenerationFsm fsm(&db, &vocab, profile);
    for (int a : prefix) ASSERT_TRUE(fsm.Step(a).ok());
    ASSERT_FALSE(fsm.done());

    GenerationFsm walked(&db, &vocab, profile);
    walked.AttachCompiledTable(&table);
    for (int a : prefix) ASSERT_TRUE(walked.Step(a).ok());
    EXPECT_TRUE(walked.compiled_active());
    ASSERT_EQ(walked.compiled_state(), s)
        << "table-attached replay diverged after " << prefix.size()
        << " witness tokens";

    std::vector<uint8_t> legal_any(vocab.size(), 0);
    for (int r = 0; r < kNumBudgetRegimes; ++r) {
      fsm.OverrideBudgetRegime(static_cast<BudgetRegime>(r));
      const std::vector<uint8_t>& want = fsm.ValidActions();
      const std::vector<uint8_t>& got = table.Mask(s, r);
      ASSERT_EQ(want.size(), got.size());
      int width = 0;
      for (int id = 0; id < vocab.size(); ++id) {
        if (want[id] != 0) {
          ++width;
          legal_any[id] = 1;
        }
        ASSERT_EQ(want[id] != 0, got[id] != 0)
            << "mask mismatch at state " << s << " regime " << r
            << " token " << id << " ('" << vocab.token(id).text
            << "') after a witness of " << prefix.size() << " tokens";
      }
      EXPECT_EQ(table.MaskWidth(s, r), width);
    }

    for (int id = 0; id < vocab.size(); ++id) {
      if (legal_any[id] == 0) continue;
      const uint32_t next = table.Next(s, id);
      ASSERT_NE(next, CompiledFsmTable::kNoState)
          << "state " << s << " offers token '" << vocab.token(id).text
          << "' but has no compiled edge for it";
      ASSERT_LT(next, n);
      if (!visited[next]) {
        visited[next] = 1;
        parent[next] = s;
        via[next] = id;
        order.push_back(next);
      }
    }
  }

  if (cap == 0) {
    EXPECT_EQ(order.size(), static_cast<size_t>(n))
        << "mask-legal edges do not reach every compiled state";
  }
}

TEST(CompiledFsmTest, ExhaustiveEquivalenceOnScore) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  for (const QueryProfile& profile :
       {QueryProfile::SpjOnly(), DmlProfile()}) {
    CompileFsmOptions co;
    co.max_millis = 180000;  // sanitizer builds run the compiler ~20x slower
    auto table = CompileFsm(db, *vocab, profile, co);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    // The smallest dataset is always swept in full, whatever the cap.
    CheckTableAgainstInterpreter(db, *vocab, profile, *table, /*cap=*/0);
  }
}

TEST(CompiledFsmTest, ExhaustiveEquivalenceOnEveryBundledDataset) {
  // SPJ is the profile whose structural graph compiles on every bundled
  // dataset; the permissive profiles exceed the caps everywhere and fall
  // back to interpretation by design (see DESIGN.md §6h).
  const QueryProfile profile = QueryProfile::SpjOnly();
  for (const std::string& name : FuzzDatasetNames()) {
    auto db = BuildNamedDatabase(name, 0.05);
    ASSERT_TRUE(db.ok()) << name;
    auto vocab = Vocabulary::Build(*db, VocabularyOptions());
    ASSERT_TRUE(vocab.ok()) << name;
    CompileFsmOptions co;
    co.max_millis = 180000;  // sanitizer builds run the compiler ~20x slower
    auto table = CompileFsm(*db, *vocab, profile, co);
    ASSERT_TRUE(table.ok()) << name << ": " << table.status().ToString();
    SCOPED_TRACE(name);
    CheckTableAgainstInterpreter(*db, *vocab, profile, *table,
                                 ExhaustiveCap());
  }
}

TEST(CompiledFsmTest, CompiledWalksReproduceInterpretedWalks) {
  // Same Rng stream, same masks => the table-driven FSM generates the
  // exact same query byte for byte (random walks index into the mask).
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  const QueryProfile profile = QueryProfile::SpjOnly();
  auto table = CompileFsm(db, *vocab, profile, CompileFsmOptions());
  ASSERT_TRUE(table.ok());
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng_a(seed), rng_b(seed);
    GenerationFsm interp(&db, &*vocab, profile);
    GenerationFsm compiled(&db, &*vocab, profile);
    compiled.AttachCompiledTable(&*table);
    auto qa = RandomWalkQuery(&interp, &rng_a);
    auto qb = RandomWalkQuery(&compiled, &rng_b);
    ASSERT_TRUE(qa.ok() && qb.ok());
    EXPECT_EQ(RenderSql(*qa, db.catalog()), RenderSql(*qb, db.catalog()))
        << "seed " << seed;
  }
}

TEST(CompiledFsmTest, MaskPoolIsDeduplicated) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  auto table =
      CompileFsm(db, *vocab, QueryProfile::SpjOnly(), CompileFsmOptions());
  ASSERT_TRUE(table.ok());
  const CompiledFsmStats stats = table->stats();
  EXPECT_GT(stats.num_states, 2u);
  EXPECT_GT(stats.num_edges, 0u);
  EXPECT_GT(stats.mask_pool_entries, 1u);
  // The pool is the point: 3 regime masks per state collapse to far fewer
  // distinct vectors (most states are budget-insensitive).
  EXPECT_LT(stats.mask_pool_entries, stats.num_states * 3);
  EXPECT_LE(stats.class_mask_pool_entries, stats.num_states);
  EXPECT_EQ(stats.vocab_size, vocab->size());
  EXPECT_GT(stats.bytes, 0u);
}

TEST(CompiledFsmTest, SaveLoadRoundTripsByteForByte) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  const QueryProfile profile = QueryProfile::SpjOnly();
  auto table = CompileFsm(db, *vocab, profile, CompileFsmOptions());
  ASSERT_TRUE(table.ok());

  const std::string path_a = ::testing::TempDir() + "compiled_fsm_a.bin";
  const std::string path_b = ::testing::TempDir() + "compiled_fsm_b.bin";
  ASSERT_TRUE(table->Save(path_a).ok());
  auto loaded = CompiledFsmTable::Load(path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->fingerprint(), table->fingerprint());
  EXPECT_EQ(loaded->num_states(), table->num_states());
  EXPECT_EQ(loaded->start_state(), table->start_state());
  EXPECT_EQ(loaded->accept_state(), table->accept_state());
  EXPECT_EQ(loaded->vocab_size(), table->vocab_size());

  // Loaded tables answer identically on every state/regime/token.
  for (uint32_t s = 0; s < table->num_states(); ++s) {
    for (int r = 0; r < kNumBudgetRegimes; ++r) {
      ASSERT_EQ(loaded->Mask(s, r), table->Mask(s, r)) << s << "/" << r;
      ASSERT_EQ(loaded->MaskWidth(s, r), table->MaskWidth(s, r));
    }
    for (int id = 0; id < table->vocab_size(); ++id) {
      ASSERT_EQ(loaded->Next(s, id), table->Next(s, id));
    }
  }

  // And re-saving the loaded table reproduces the artifact byte for byte.
  ASSERT_TRUE(loaded->Save(path_b).ok());
  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string bytes_a = slurp(path_a);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, slurp(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(CompiledFsmTest, LoadRejectsCorruptArtifacts) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  auto table =
      CompileFsm(db, *vocab, QueryProfile::SpjOnly(), CompileFsmOptions());
  ASSERT_TRUE(table.ok());
  const std::string path = ::testing::TempDir() + "compiled_fsm_corrupt.bin";
  ASSERT_TRUE(table->Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);

  auto write = [&](const std::string& b) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  };

  // Missing file.
  EXPECT_FALSE(CompiledFsmTable::Load(path + ".nope").ok());
  // Wrong magic.
  std::string bad = bytes;
  bad[0] ^= 0x5a;
  write(bad);
  EXPECT_FALSE(CompiledFsmTable::Load(path).ok());
  // Truncated payload.
  write(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(CompiledFsmTable::Load(path).ok());
  // One flipped payload byte must fail the checksum.
  bad = bytes;
  bad[bytes.size() / 2] ^= 0x01;
  write(bad);
  EXPECT_FALSE(CompiledFsmTable::Load(path).ok());
  // The pristine bytes still load (the harness itself is sound).
  write(bytes);
  EXPECT_TRUE(CompiledFsmTable::Load(path).ok());
  std::remove(path.c_str());
}

TEST(CompiledFsmTest, DiskCacheRecompilesCorruptArtifacts) {
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  const QueryProfile profile = QueryProfile::SpjOnly();
  const std::string dir = ::testing::TempDir() + "compiled_fsm_cache";

  auto first = BuildOrLoadCompiledFsm(db, *vocab, profile,
                                      CompileFsmOptions(), dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Second call is served from disk and agrees on identity.
  auto second = BuildOrLoadCompiledFsm(db, *vocab, profile,
                                       CompileFsmOptions(), dir);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->fingerprint(), second->fingerprint());
  EXPECT_EQ(first->num_states(), second->num_states());

  // Stomp every artifact in the cache dir; the loader must fall back to a
  // recompile instead of trusting the corrupt bytes.
  int stomped = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "not a compiled fsm artifact";
    ++stomped;
  }
  ASSERT_GT(stomped, 0) << "cache dir holds no artifact to corrupt";
  auto third = BuildOrLoadCompiledFsm(db, *vocab, profile,
                                      CompileFsmOptions(), dir);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->fingerprint(), first->fingerprint());
  EXPECT_EQ(third->num_states(), first->num_states());
}

TEST(CompiledFsmTest, FingerprintSeparatesCompilationInputs) {
  Database score = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(score, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  VocabularyOptions small;
  small.values_per_column = 2;
  auto vocab_small = Vocabulary::Build(score, small);
  ASSERT_TRUE(vocab_small.ok());
  auto tpch = BuildNamedDatabase("tpch", 0.05);
  ASSERT_TRUE(tpch.ok());
  auto tpch_vocab = Vocabulary::Build(*tpch, VocabularyOptions());
  ASSERT_TRUE(tpch_vocab.ok());

  const uint64_t base =
      CompiledFsmFingerprint(score, *vocab, QueryProfile::SpjOnly());
  // Deterministic for identical inputs...
  EXPECT_EQ(base,
            CompiledFsmFingerprint(score, *vocab, QueryProfile::SpjOnly()));
  // ...and sensitive to each input: profile, vocabulary, database.
  EXPECT_NE(base, CompiledFsmFingerprint(score, *vocab, DmlProfile()));
  EXPECT_NE(base, CompiledFsmFingerprint(score, *vocab, QueryProfile()));
  EXPECT_NE(base, CompiledFsmFingerprint(score, *vocab_small,
                                         QueryProfile::SpjOnly()));
  EXPECT_NE(base, CompiledFsmFingerprint(*tpch, *tpch_vocab,
                                         QueryProfile::SpjOnly()));
}

TEST(CompiledFsmTest, InjectedCorruptionsAreCaughtByTheOracle) {
  // The two mutation hooks behind `lsgfuzz --inject-bug`: each must be
  // detected by the lockstep compiled-vs-interpreted oracle within a
  // modest episode budget, or the differential harness is toothless.
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  const QueryProfile profile = QueryProfile::SpjOnly();
  auto pristine = CompileFsm(db, *vocab, profile, CompileFsmOptions());
  ASSERT_TRUE(pristine.ok());

  for (const std::string bug : {"mask-bit", "transition-swap"}) {
    CompiledFsmTable corrupt = *pristine;  // never mutate the original
    if (bug == "mask-bit") {
      corrupt.CorruptMaskBit(/*salt=*/7);
    } else {
      corrupt.CorruptTransitionSwap(/*salt=*/7);
    }
    DifferentialOracle oracle(&db);
    GenerationFsm walker(&db, &*vocab, profile);
    Rng rng(7);
    bool caught = false;
    for (int ep = 0; ep < 100 && !caught; ++ep) {
      walker.Reset();
      std::vector<int> actions;
      auto ast = RecordedRandomWalk(&walker, &rng, &actions);
      ASSERT_TRUE(ast.ok());
      auto v = oracle.CheckCompiledFsm(&*vocab, profile, &corrupt, actions);
      if (v.has_value()) {
        EXPECT_EQ(v->oracle, "compiled-fsm") << v->detail;
        caught = true;
      }
    }
    EXPECT_TRUE(caught) << "oracle never noticed injected bug: " << bug;

    // Control: the pristine table stays clean on the same walks.
    Rng rng2(7);
    for (int ep = 0; ep < 10; ++ep) {
      walker.Reset();
      std::vector<int> actions;
      ASSERT_TRUE(RecordedRandomWalk(&walker, &rng2, &actions).ok());
      auto v = oracle.CheckCompiledFsm(&*vocab, profile, &*pristine, actions);
      EXPECT_FALSE(v.has_value()) << "[" << v->oracle << "] " << v->detail;
    }
  }
}

TEST(CompiledFsmTest, ContextUnderTinyCapsFallsBackOnceToInterpreted) {
  Database db = BuildScoreStudentDb();
  const QueryProfile profile = QueryProfile::SpjOnly();

  CompileFsmOptions tiny;
  tiny.max_states = 8;
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  auto refused = CompileFsm(db, *vocab, profile, tiny);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  // The context turns the refusal into the interpreted fallback (nullptr)
  // and remembers it: later calls do not probe the compiler again.
  auto ctx = DatabaseContext::Create(&db, VocabularyOptions(), profile, "",
                                     tiny);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  EXPECT_EQ((*ctx)->compile_attempts(), 0);
  EXPECT_EQ((*ctx)->compiled_fsm(), nullptr);
  EXPECT_EQ((*ctx)->compiled_fsm(), nullptr);
  EXPECT_EQ((*ctx)->compile_attempts(), 1);

  // An environment over it runs interpreted masks.
  EnvironmentOptions eo;
  eo.profile = profile;
  SqlGenEnvironment env(**ctx, Constraint::Range(
                                   ConstraintMetric::kCardinality, 1, 100),
                        eo);
  env.Reset();
  EXPECT_FALSE(env.fsm().compiled_active());
  const std::vector<uint8_t>& mask = env.ValidActions();
  EXPECT_GT(std::count(mask.begin(), mask.end(), uint8_t{1}), 0);

  // Default caps on the same inputs compile fine.
  auto ok_ctx = DatabaseContext::Create(&db, VocabularyOptions(), profile);
  ASSERT_TRUE(ok_ctx.ok());
  EXPECT_NE((*ok_ctx)->compiled_fsm(), nullptr);
}

TEST(CompiledFsmTest, ContextCompilesOnceForConcurrentCallers) {
  // Many threads resolving one context's table at the same moment: one
  // compile runs, the rest wait for it, and every thread gets the same
  // table.
  Database db = BuildScoreStudentDb();
  auto ctx = DatabaseContext::Create(&db, VocabularyOptions(),
                                     QueryProfile::SpjOnly());
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  const DatabaseContext& context = **ctx;

  constexpr int kThreads = 8;
  std::vector<const CompiledFsmTable*> results(kThreads, nullptr);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start barrier: maximize the overlap of the first calls.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      results[t] = context.compiled_fsm();
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_NE(results[0], nullptr);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t], results[0]) << "thread " << t;
  }
  EXPECT_EQ(context.compile_attempts(), 1);
  EXPECT_EQ(context.compiled_fsm(), results[0]);
}

TEST(CompiledFsmTest, SharedTableIsSafeAcrossWalkingThreads) {
  // One immutable table, many concurrently walking FSMs — the sharing
  // contract the generation service relies on. Run this binary under TSan
  // via the fsm_tsan target to turn the assertion into a race detector.
  Database db = BuildScoreStudentDb();
  auto vocab = Vocabulary::Build(db, VocabularyOptions());
  ASSERT_TRUE(vocab.ok());
  const QueryProfile profile = QueryProfile::SpjOnly();
  auto table = CompileFsm(db, *vocab, profile, CompileFsmOptions());
  ASSERT_TRUE(table.ok());

  constexpr int kThreads = 4;
  constexpr int kEpisodes = 25;
  std::atomic<int> ok_episodes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      GenerationFsm fsm(&db, &*vocab, profile);
      fsm.AttachCompiledTable(&*table);
      for (int ep = 0; ep < kEpisodes; ++ep) {
        fsm.Reset();
        auto ast = RandomWalkQuery(&fsm, &rng);
        if (ast.ok() && fsm.compiled_active()) {
          // relaxed: independent tally, read only after join.
          ok_episodes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_episodes.load(), kThreads * kEpisodes);
}

}  // namespace
}  // namespace lsg
