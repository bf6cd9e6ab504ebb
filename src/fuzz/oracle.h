#ifndef LEARNEDSQLGEN_FUZZ_ORACLE_H_
#define LEARNEDSQLGEN_FUZZ_ORACLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include <vector>

#include "analysis/sql_linter.h"
#include "core/database_context.h"
#include "exec/dml_executor.h"
#include "exec/executor.h"
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
  bool check_reference = true;  ///< optimized executor vs. naive evaluator
  bool check_roundtrip = true;  ///< render → parse → render fixpoint + re-exec
  bool check_estimator = true;  ///< estimator finite / non-negative / bounded
  bool check_dml_apply = true;  ///< DML apply-for-real under snapshot/rollback
  bool check_prefix_estimates = true;  ///< incremental == full, token-by-token
  /// Lockstep vectorized engine: vexec cardinality must equal the reference
  /// executor's bitwise, and UPDATE/DELETE row-match vectors elementwise.
  bool check_vexec = true;
  /// Serving decode vs the training/eval rollout: DecodeItem must
  /// reproduce RolloutPolicy's samples byte-for-byte.
  bool check_serve_decode = true;

  /// Work budget per reference evaluation; exceeding it skips the check
  /// (counted in skipped()) instead of stalling the fuzzer.
  uint64_t max_reference_work = 1ull << 26;

  /// Slack multiplier on the estimator's cross-product upper bound.
  double estimator_slack = 1.5;

  // --- fault injection, used to mutation-test the harness itself ---

  /// Adds this offset to every executor cardinality that has a non-empty
  /// WHERE (a synthetic executor bug the reference oracle must catch).
  int64_t inject_card_offset = 0;

  /// Doubles the first space of the rendered SQL (a synthetic renderer bug
  /// the fixpoint oracle must catch).
  bool inject_render_space = false;

  /// Plants a defect in the oracle's vectorized engine (hash-collision /
  /// sel-vector-off-by-one) that the vexec lockstep check must catch.
  vexec::InjectBug inject_vexec_bug = vexec::InjectBug::kNone;
};

/// One oracle violation: which oracle fired and why.
struct OracleViolation {
  std::string oracle;  ///< "exec-vs-ref", "render-fixpoint", ...
  std::string detail;
};

/// The full correctness gate for one generated query, run in order:
///   0. lint             — the AST satisfies every SqlLinter semantic rule
///                         (independent re-derivation of the FSM's masks)
///   1. executor-error   — optimized executor must accept every FSM query
///   2. exec-vs-ref      — cardinality equals the naive reference evaluator
///   2b. vexec           — the vectorized engine reproduces the reference
///                         executor's cardinality bitwise (and, for
///                         UPDATE/DELETE, its per-row match vector)
///   3. reparse-error / render-fixpoint / reparse-exec
///                       — Render(Parse(Render(q))) == Render(q) byte-for-
///                         byte and the reparsed AST executes identically
///   4. estimator-bounds — estimate is finite, non-negative, and at most
///                         slack × the join cross product
///   5. dml-apply / dml-rollback
///                       — DML applied for real affects exactly the
///                         predicted rows; the snapshot restore leaves the
///                         database byte-identical
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
  /// budgets under `profile` twice — once through the serving loop
  /// (DecodeItem over a ServingSnapshot, the const step with a private
  /// workspace) and once through RolloutPolicy (the network's own step)
  /// with the same per-request RNG streams — asserting attempt counts,
  /// rendered SQL, metrics and satisfied flags are byte-identical.
  std::optional<OracleViolation> CheckServeDecode(
      std::shared_ptr<const DatabaseContext> context,
      const QueryProfile& profile, uint64_t seed);

  uint64_t checked() const { return checked_; }
  /// Episodes where some check was skipped (join blowup / work budget).
  uint64_t skipped() const { return skipped_; }

 private:
  std::optional<OracleViolation> CheckDmlApply(const QueryAst& ast,
                                               uint64_t predicted);

  Database* db_;
  OracleOptions options_;
  DatabaseStats stats_;
  CardinalityEstimator estimator_;
  CostModel cost_model_;
  Executor exec_;
  DmlExecutor dml_;
  ReferenceEvaluator reference_;
  vexec::VectorizedEngine vexec_;
  SqlLinter linter_;
  uint64_t checked_ = 0;
  uint64_t skipped_ = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FUZZ_ORACLE_H_
