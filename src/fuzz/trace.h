#ifndef LEARNEDSQLGEN_FUZZ_TRACE_H_
#define LEARNEDSQLGEN_FUZZ_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "fsm/generation_fsm.h"

namespace lsg {

/// A replayable fuzzing episode: everything needed to rebuild the exact
/// same query deterministically — the database (by name + scale), the FSM
/// profile and vocabulary sampling width, and the chosen action-token-id
/// sequence. Failure artifacts additionally carry the violated oracle and
/// a human-readable detail line.
struct EpisodeTrace {
  std::string dataset;       ///< "score" | "tpch" | "job" | "xuetang"
  int profile = 0;           ///< index into FuzzProfiles()
  double scale = 1.0;        ///< dataset scale factor
  int values_per_column = 8; ///< vocabulary sampling width
  uint64_t seed = 0;         ///< episode RNG seed (provenance only)
  uint64_t episode = 0;      ///< episode ordinal within the run
  std::string oracle;        ///< violated oracle name (empty = clean)
  std::string detail;        ///< failure description (single line)
  std::string sql;           ///< rendered SQL (informational, single line)
  std::vector<int> actions;  ///< chosen action token ids, in order
};

/// Serializes a trace to the corpus text format (see DESIGN.md):
///   lsgfuzz-trace v1
///   dataset <name> / profile <i> / scale <f> / values <k> / seed <s> /
///   episode <e> / oracle <name> / detail <text> / sql <text> /
///   actions <id id ...> / end
std::string TraceToString(const EpisodeTrace& trace);
StatusOr<EpisodeTrace> ParseTrace(const std::string& text);

Status SaveTrace(const EpisodeTrace& trace, const std::string& path);
StatusOr<EpisodeTrace> LoadTrace(const std::string& path);

/// Drives the FSM with a recorded action sequence, repairing FSM-illegal
/// steps so that *any* action subsequence yields a legal query: illegal
/// recorded actions are skipped, and once the sequence is exhausted the
/// query is completed deterministically by always taking the lowest valid
/// action id (the FSM's budget masking bounds this). Sets `*exact` to true
/// iff no repair was needed (pure replay). Used both by `lsgfuzz --replay`
/// and by the shrinker's candidate evaluation.
StatusOr<QueryAst> ReplayActions(GenerationFsm* fsm,
                                 const std::vector<int>& actions, bool* exact);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FUZZ_TRACE_H_
