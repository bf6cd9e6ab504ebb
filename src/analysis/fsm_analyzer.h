#ifndef LEARNEDSQLGEN_ANALYSIS_FSM_ANALYZER_H_
#define LEARNEDSQLGEN_ANALYSIS_FSM_ANALYZER_H_

#include <string>
#include <vector>

#include "analysis/sql_linter.h"
#include "common/status.h"
#include "fsm/generation_fsm.h"
#include "sql/vocabulary.h"
#include "storage/table.h"

namespace lsg {

/// Exploration bounds. The analyzer proves properties of the *exact* FSM
/// state graph under a clamped profile — a small-scope argument: every
/// mask decision depends only on saturating counters (items, joins,
/// predicates, budget), so a rule gap reachable under large bounds is
/// already reachable once each counter can hit its gate, which the clamped
/// bounds (joins<=2, items<=2, preds<=2, nesting<=profile) guarantee (see
/// DESIGN.md §6d). The unclamped Full() graph is astronomically large.
struct AnalyzerOptions {
  /// Structural profile to explore under (clamped before exploring).
  QueryProfile profile;

  /// Token-budget regime: 0 analyzes under an effectively unbounded budget
  /// (structural properties; the count drops out of the state key), >0
  /// sets an exact small budget so the tightness-pruning boundary itself
  /// is explored exhaustively.
  int budget_tokens = 0;

  /// Abort with exhausted=false once this many abstract states exist.
  int max_states = 400000;
};

/// One reachable defect: a semantic-rule violation, dead state, or stuck
/// state, with a replayable token-prefix witness.
struct FsmDefect {
  std::string kind;    ///< lint rule name, "dead-state", or "stuck-state"
  std::string phase;   ///< BuildPhaseName of the offending state
  std::string detail;  ///< human-readable description
  std::string prefix;  ///< token texts of the witness prefix
};

/// Result of one exhaustive exploration.
struct FsmAnalysisReport {
  std::string profile_name;   ///< label set by the caller (optional)
  bool exhausted = false;     ///< false if max_states was hit
  int num_states = 0;         ///< distinct abstract states (incl. accept)
  int num_edges = 0;
  int num_accepting_edges = 0;
  int num_dead = 0;           ///< reachable states that cannot accept
  int num_stuck = 0;          ///< non-terminal states with an empty mask
  int num_violations = 0;     ///< total semantic-rule violations found
  int num_summaries = 0;      ///< distinct subquery regions summarized
  int max_prefix_tokens = 0;  ///< longest witness prefix seen

  /// Reachable semantic-rule violations (mask-level + accept-time lint);
  /// capped examples — num_violations holds the true total.
  std::vector<FsmDefect> violations;
  /// Example dead / stuck states (subset, at most 5 of each).
  std::vector<FsmDefect> dead_examples;
  std::vector<FsmDefect> stuck_examples;

  /// offered[id] != 0 iff token id was legal in some explored state.
  std::vector<uint8_t> offered;
  /// Token ids never legal in any state under this profile.
  std::vector<int> NeverOfferedTokens() const;

  /// True iff the graph was fully explored with zero defects.
  bool Clean() const {
    return exhausted && num_dead == 0 && num_stuck == 0 &&
           num_violations == 0;
  }

  /// Multi-line human-readable summary.
  std::string Summary(const Vocabulary* vocab = nullptr) const;
  /// Single JSON object with all counters and defect lists.
  std::string ToJson() const;
};

/// Exhaustive BFS over the GenerationFsm state graph for one database.
///
/// States are abstracted with AbstractStateKey (a mask-bisimulation), so
/// exploring one representative per key covers every concrete generator
/// state. Under the unbounded-budget regime, subquery regions are explored
/// once per (purpose, outer-lhs, depth) and spliced into every parent
/// context as summary edges — a subquery's masks read nothing else from
/// its parent, so the summary is exact (interprocedural-style analysis).
/// At each state the analyzer re-checks the offered mask against the
/// SqlLinter's independently derived rule predicates (FK edges, operator /
/// aggregate / literal typing, scope), detects empty masks mid-episode, and
/// lints the AST of every accepting transition (a differential check);
/// afterwards a reverse fixpoint over the edge list finds states that can
/// never reach EOF.
class FsmAnalyzer {
 public:
  /// All pointers must outlive the analyzer.
  FsmAnalyzer(const Database* db, const Vocabulary* vocab,
              AnalyzerOptions options);

  /// Runs the exploration. Returns InvalidArgument only for unusable
  /// inputs; state-space blowup is reported via exhausted=false.
  StatusOr<FsmAnalysisReport> Analyze();

  /// The profile actually explored (after clamping).
  const QueryProfile& effective_profile() const { return profile_; }

 private:
  const Database* db_;
  const Vocabulary* vocab_;
  AnalyzerOptions options_;
  QueryProfile profile_;
  SqlLinter linter_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_ANALYSIS_FSM_ANALYZER_H_
