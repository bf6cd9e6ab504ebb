// The FSM's two independent checks against a seeded gap in its masks. This
// file is built only against a mutant GenerationFsm (tests/mutants/
// README.md), one binary per mutant, with LSG_MUTANT_DATASET naming the
// bundled dataset whose schema exposes the gap:
//   agg-type-gap   (score): SUM/AVG/... offered over any column type;
//   join-edge-gap  (tpch):  JOIN offered to tables without an FK edge.
// Both the FsmAnalyzer's exhaustive state-graph walk and the SqlLinter
// over random FSM walks must report the gap. Against the clean FSM both
// cases fail; analysis_test.cc checks that the clean FSM is violation-free.
#include <gtest/gtest.h>

#include <cstdio>
#include <utility>

#include "analysis/fsm_analyzer.h"
#include "analysis/sql_linter.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/workload.h"
#include "fsm/generation_fsm.h"
#include "fuzz/fuzzer.h"
#include "fuzz/test_databases.h"
#include "sql/vocabulary.h"

#ifndef LSG_MUTANT_DATASET
#error "LSG_MUTANT_DATASET names the dataset that exposes the mutant's gap"
#endif

namespace lsg {
namespace {

/// The dataset and vocabulary `lsglint --fsm` analyzes: scale 0.05, six
/// sampled values per column.
struct MutantFixture {
  Database db;
  Vocabulary vocab;
};

MutantFixture Build() {
  auto db = BuildNamedDatabase(LSG_MUTANT_DATASET, 0.05);
  LSG_CHECK(db.ok());
  VocabularyOptions vo;
  vo.values_per_column = 6;
  auto vocab = Vocabulary::Build(*db, vo);
  LSG_CHECK(vocab.ok());
  return {std::move(db).value(), std::move(vocab).value()};
}

TEST(FsmMutantTest, AnalyzerReportsViolations) {
  const MutantFixture f = Build();
  AnalyzerOptions opts;
  opts.profile = FuzzProfiles()[0].profile;
  FsmAnalyzer analyzer(&f.db, &f.vocab, opts);
  auto report = analyzer.Analyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::printf("%s: analyzer violations=%d\n", LSG_MUTANT_DATASET,
              report->num_violations);
  EXPECT_GT(report->num_violations, 0)
      << "analyzer blind to the seeded gap on " LSG_MUTANT_DATASET;
}

TEST(FsmMutantTest, LinterFlagsRandomWalks) {
  // The linter re-derives the rules from the catalog alone, so finished
  // ASTs from the gapped FSM must lint dirty.
  const MutantFixture f = Build();
  SqlLinter linter(&f.db.catalog());
  Rng rng(20260806);
  int walks = 0, hits = 0;
  for (int ep = 0; ep < 300; ++ep) {
    GenerationFsm fsm(&f.db, &f.vocab, FuzzProfiles()[0].profile);
    auto ast = RandomWalkQuery(&fsm, &rng);
    if (!ast.ok()) continue;
    ++walks;
    if (!linter.Lint(ast.value()).empty()) ++hits;
  }
  std::printf("%s: linter hits=%d/%d walks\n", LSG_MUTANT_DATASET, hits,
              walks);
  EXPECT_GT(hits, 0) << "linter blind to the seeded gap on "
                     << LSG_MUTANT_DATASET << " over " << walks << " walks";
}

}  // namespace
}  // namespace lsg
