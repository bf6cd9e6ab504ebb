// Deeper FSM soundness properties:
//  1. Mask soundness — every action the FSM offers is structurally legal:
//     replaying the prefix on a fresh FSM and taking any offered action
//     must succeed (not just the one the walk happened to choose).
//  2. Estimator sanity at dataset scale — estimates for FSM-generated
//     queries are finite, non-negative, and not absurdly far from truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/workload.h"
#include "datasets/tpch_like.h"
#include "fsm/generation_fsm.h"
#include "fuzz/test_databases.h"
#include "optimizer/cardinality_estimator.h"
#include "sql/render.h"
#include "tests/test_db.h"
#include "vexec/vectorized_engine.h"

namespace lsg {
namespace {

// One param per profile: default, full, nested depth 2, SPJ, and
// DML only.
class MaskSoundness : public ::testing::TestWithParam<int> {};

TEST_P(MaskSoundness, EveryOfferedActionIsLegal) {
  Database db = BuildScoreStudentDb();
  VocabularyOptions vo;
  vo.values_per_column = 6;
  auto vocab = Vocabulary::Build(db, vo);
  ASSERT_TRUE(vocab.ok());
  QueryProfile profile;
  switch (GetParam()) {
    case 0:
      break;
    case 1:
      profile = QueryProfile::Full();
      break;
    case 2:
      profile.max_nesting_depth = 2;
      break;
    case 3:
      profile = QueryProfile::SpjOnly();
      break;
    default:
      profile.allow_select = false;
      profile.allow_insert = true;
      profile.allow_update = true;
      profile.allow_delete = true;
      break;
  }

  Rng rng(4000 + GetParam());
  for (int walk = 0; walk < 25; ++walk) {
    GenerationFsm fsm(&db, &*vocab, profile);
    std::vector<int> prefix;
    while (!fsm.done()) {
      const auto& mask = fsm.ValidActions().bytes;
      std::vector<int> allowed;
      for (size_t i = 0; i < mask.size(); ++i) {
        if (mask[i]) allowed.push_back(static_cast<int>(i));
      }
      ASSERT_FALSE(allowed.empty());
      // Check a sample of the offered actions (up to 6) by replaying the
      // prefix on a fresh FSM and stepping the candidate.
      rng.Shuffle(&allowed);
      size_t check = std::min<size_t>(6, allowed.size());
      for (size_t k = 0; k < check; ++k) {
        GenerationFsm replay(&db, &*vocab, profile);
        for (int a : prefix) {
          ASSERT_TRUE(replay.Step(a).ok());
        }
        EXPECT_TRUE(replay.Step(allowed[k]).ok())
            << "offered action '" << vocab->token(allowed[k]).text
            << "' rejected after prefix of " << prefix.size() << " tokens";
      }
      // Continue the walk with a random offered action.
      int chosen = allowed[rng.Uniform(allowed.size())];
      ASSERT_TRUE(fsm.Step(chosen).ok());
      prefix.push_back(chosen);
      ASSERT_LT(prefix.size(), 200u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, MaskSoundness, ::testing::Range(0, 5));

// The admitted list is the byte mask's support in ascending order at every
// step of every walk, and both are empty once the query is done: the policy
// reads the list and the scans read the bytes, so they must never differ.
TEST(AdmittedListTest, EqualsAscendingScanOfTheByteMask) {
  QueryProfile dml;
  dml.allow_insert = true;
  dml.allow_update = true;
  dml.allow_delete = true;
  for (const std::string& name : FuzzDatasetNames()) {
    auto db = BuildNamedDatabase(name);
    ASSERT_TRUE(db.ok());
    auto vocab = Vocabulary::Build(*db, VocabularyOptions());
    ASSERT_TRUE(vocab.ok());
    for (const QueryProfile& profile : {QueryProfile(), dml}) {
      GenerationFsm fsm(&*db, &*vocab, profile);
      Rng rng(6100 + static_cast<uint64_t>(profile.allow_delete));
      size_t steps = 0;
      for (int walk = 0; walk < 500; ++walk) {
        fsm.Reset();
        std::vector<int> scan;
        while (true) {
          const ActionMask& mask = fsm.ValidActions();
          scan.clear();
          for (size_t i = 0; i < mask.bytes.size(); ++i) {
            if (mask.bytes[i] != 0) scan.push_back(static_cast<int>(i));
          }
          ASSERT_EQ(mask.ids, scan)
              << name << " walk " << walk << " after "
              << fsm.tokens().size() << " tokens";
          if (fsm.done()) break;
          ASSERT_FALSE(scan.empty());
          ASSERT_TRUE(fsm.Step(scan[rng.Uniform(scan.size())]).ok());
          ++steps;
        }
        ASSERT_TRUE(scan.empty()) << name << " walk " << walk;
        (void)fsm.TakeAst();
      }
      EXPECT_GT(steps, 500u * 10) << name;
    }
  }
}

TEST(MaskSoundness, ExecutablePrefixesReallyExecute) {
  // Whenever the FSM reports an executable prefix, the partial AST must
  // execute without error (it feeds the reward path).
  Database db = BuildScoreStudentDb();
  VocabularyOptions vo;
  vo.values_per_column = 6;
  auto vocab = Vocabulary::Build(db, vo);
  ASSERT_TRUE(vocab.ok());
  vexec::VectorizedEngine exec(&db);
  GenerationFsm fsm(&db, &*vocab, QueryProfile::Full());
  Rng rng(4242);
  int executable_states = 0;
  for (int walk = 0; walk < 120; ++walk) {
    fsm.Reset();
    while (!fsm.done()) {
      const auto& mask = fsm.ValidActions().bytes;
      int chosen = -1, seen = 0;
      for (size_t i = 0; i < mask.size(); ++i) {
        if (!mask[i]) continue;
        ++seen;
        if (rng.Uniform(seen) == 0) chosen = static_cast<int>(i);
      }
      ASSERT_GE(chosen, 0);
      ASSERT_TRUE(fsm.Step(chosen).ok());
      if (!fsm.done() && fsm.IsExecutablePrefix()) {
        ++executable_states;
        auto card = exec.Cardinality(fsm.builder().ast());
        ASSERT_TRUE(card.ok())
            << RenderSql(fsm.builder().ast(), db.catalog());
      }
    }
    (void)fsm.TakeAst();
  }
  EXPECT_GT(executable_states, 100);
}

TEST(EstimatorScaleTest, GeneratedQueriesHaveSaneEstimates) {
  Database db = BuildTpchLike(DatasetScale{0.5, 1});
  DatabaseStats stats = DatabaseStats::Collect(db);
  CardinalityEstimator est(&db, &stats);
  vexec::VectorizedEngine exec(&db);
  VocabularyOptions vo;
  vo.values_per_column = 20;
  auto vocab = Vocabulary::Build(db, vo);
  ASSERT_TRUE(vocab.ok());
  GenerationFsm fsm(&db, &*vocab, QueryProfile());
  Rng rng(5150);
  std::vector<double> qerrors;
  for (int i = 0; i < 150; ++i) {
    auto ast = RandomWalkQuery(&fsm, &rng);
    ASSERT_TRUE(ast.ok());
    double e = est.EstimateCardinality(*ast);
    EXPECT_TRUE(std::isfinite(e));
    EXPECT_GE(e, 0.0);
    auto truth = exec.Cardinality(*ast);
    if (!truth.ok()) continue;  // join-blowup guard: skip
    double t = static_cast<double>(*truth);
    qerrors.push_back(std::max((e + 1) / (t + 1), (t + 1) / (e + 1)));
  }
  ASSERT_GT(qerrors.size(), 100u);
  std::sort(qerrors.begin(), qerrors.end());
  double median = qerrors[qerrors.size() / 2];
  double p90 = qerrors[qerrors.size() * 9 / 10];
  // Classic System-R estimators are rough, but must stay in a usable band
  // on this workload (predicates over histogrammed columns + FK joins).
  EXPECT_LT(median, 4.0);
  EXPECT_LT(p90, 100.0);
}

TEST(EstimatorScaleTest, EstimatesMonotoneInRangeWidth) {
  // Widening a range predicate must never decrease the estimate.
  Database db = BuildTpchLike(DatasetScale{0.5, 1});
  DatabaseStats stats = DatabaseStats::Collect(db);
  CardinalityEstimator est(&db, &stats);
  int li = db.catalog().FindTable("lineitem");
  double prev = -1.0;
  for (int q = 5; q <= 50; q += 5) {
    SelectQuery sel;
    sel.tables = {li};
    sel.items.push_back({AggFunc::kNone, {li, 0}});
    Predicate p;
    p.column = {li, 4};  // l_quantity in [1, 50]
    p.op = CompareOp::kLe;
    p.value = Value(int64_t{q});
    sel.where.predicates.push_back(std::move(p));
    double e = est.EstimateSelect(sel, nullptr);
    EXPECT_GE(e, prev);
    prev = e;
  }
}

}  // namespace
}  // namespace lsg
