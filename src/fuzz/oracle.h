#ifndef LEARNEDSQLGEN_FUZZ_ORACLE_H_
#define LEARNEDSQLGEN_FUZZ_ORACLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include <vector>

#include "analysis/sql_linter.h"
#include "core/database_context.h"
#include "fsm/generation_fsm.h"
#include "fuzz/reference_eval.h"
#include "optimizer/cardinality_estimator.h"
#include "optimizer/column_stats.h"
#include "optimizer/cost_model.h"
#include "optimizer/prefix_estimator.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "vexec/vectorized_engine.h"

namespace lsg {

/// Tuning and fault-injection knobs for the oracle stack.
struct OracleOptions {
  bool check_lint = true;       ///< AST-level semantic lint (SqlLinter)
  bool check_roundtrip = true;  ///< render → parse → render fixpoint + re-exec
  bool check_estimator = true;  ///< estimator finite / non-negative / bounded
  bool check_dml_apply = true;  ///< DML apply-for-real under snapshot/rollback
  bool check_prefix_estimates = true;  ///< incremental == full, token-by-token
  /// The vectorized engine against the nested-loop ReferenceEvaluator:
  /// SELECT status, cardinality, ExecStats meters and first column under
  /// both materialize settings; DML counts and UPDATE/DELETE row-match
  /// vectors.
  bool check_vexec = true;
  /// Serving decode vs an independent episode loop: Decode must reproduce
  /// a hand-written per-attempt rollout's samples byte-for-byte.
  bool check_serve_decode = true;

  // --- fault injection, used to mutation-test the harness itself ---

  /// Adds this offset to every vectorized-engine cardinality of a query
  /// with a non-empty WHERE, as check_vexec sees it (a synthetic engine
  /// bug that check must catch).
  int64_t inject_card_offset = 0;

  /// Doubles the first space of the rendered SQL (a synthetic renderer bug
  /// the fixpoint oracle must catch).
  bool inject_render_space = false;
};

/// One oracle violation: which oracle fired and why.
struct OracleViolation {
  std::string oracle;  ///< "exec-vs-ref", "render-fixpoint", ...
  std::string detail;
};

/// The full correctness gate for one generated query, run in order:
///   0. lint             — the AST satisfies every SqlLinter semantic rule
///                         (independent re-derivation of the FSM's masks)
///   1. executor-error   — the vectorized engine accepts every FSM query
///   2. vexec            — the vectorized engine reproduces the nested-loop
///                         ReferenceEvaluator: for a SELECT, status,
///                         cardinality, ExecStats meters and first column
///                         under both materialize settings; for DML the
///                         count and, for UPDATE/DELETE, the per-row match
///                         vector
///   3. reparse-error / render-fixpoint / reparse-exec
///                       — Render(Parse(Render(q))) == Render(q) byte-for-
///                         byte and the reparsed AST executes identically
///   4. estimator-bounds — estimate is finite, non-negative, and at most
///                         slack × the join cross product
///   5. dml-apply / dml-rollback
///                       — DML applied for real (the reference's matching
///                         rows) affects exactly the predicted rows; the
///                         snapshot restore leaves the database
///                         byte-identical
///
/// `db` is mutated only inside check 5 and always restored before Check()
/// returns, so episodes are independent.
class DifferentialOracle {
 public:
  DifferentialOracle(Database* db, OracleOptions options = OracleOptions());

  /// Runs every enabled oracle; nullopt means the query passed them all.
  std::optional<OracleViolation> Check(const QueryAst& ast);

  /// Sixth oracle (prefix-estimate): replays `actions` through a fresh FSM
  /// over the oracle's database and asserts at every executable prefix of
  /// a SELECT that the incremental PrefixEstimator reproduces the full
  /// EstimateSelect / SelectCost walk bitwise — the invariant the
  /// environment's O(1) feedback path depends on.
  std::optional<OracleViolation> CheckPrefixEstimates(
      const Vocabulary* vocab, const QueryProfile& profile,
      const std::vector<int>& actions);

  /// Seventh oracle (serve-decode): builds a small randomly-initialized
  /// policy over `context`, which must be over the oracle's database
  /// (seeded from `seed`, so the equivalence must hold for arbitrary
  /// weights, not just trained ones) and decodes requests of several
  /// budgets under `profile` twice — once through the serving decode
  /// (Decode over a ServingSnapshot: one environment and one workspace per
  /// request, its attempt budget and judging) and once through a
  /// hand-written episode loop (Reset, the mask, PolicyNetwork::Step,
  /// SampleAction, the environment's Step; no RolloutPolicy, no
  /// RunEpisode) with a fresh episode and workspace per attempt — with the
  /// same per-request RNG streams, asserting attempt counts, rendered SQL,
  /// metrics and satisfied flags are byte-identical.
  std::optional<OracleViolation> CheckServeDecode(
      std::shared_ptr<const DatabaseContext> context,
      const QueryProfile& profile, uint64_t seed);

  uint64_t checked() const { return checked_; }
  /// Checks skipped: a join past the engine's cap, or a query past the
  /// reference's work budget (at most one of each per episode).
  uint64_t skipped() const { return skipped_; }

 private:
  /// Check 2: the vectorized engine against the reference. `card` is the
  /// engine's Cardinality(ast); `sql` is the rendered query.
  std::optional<OracleViolation> CheckExecution(const QueryAst& ast,
                                                uint64_t card,
                                                const std::string& sql);
  std::optional<OracleViolation> CheckDmlApply(const QueryAst& ast,
                                               uint64_t predicted);

  Database* db_;
  OracleOptions options_;
  DatabaseStats stats_;
  CardinalityEstimator estimator_;
  CostModel cost_model_;
  ReferenceEvaluator reference_;
  vexec::VectorizedEngine vexec_;
  SqlLinter linter_;
  uint64_t checked_ = 0;
  uint64_t skipped_ = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FUZZ_ORACLE_H_
