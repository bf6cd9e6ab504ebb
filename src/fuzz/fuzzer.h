#ifndef LEARNEDSQLGEN_FUZZ_FUZZER_H_
#define LEARNEDSQLGEN_FUZZ_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fsm/generation_fsm.h"
#include "fuzz/oracle.h"
#include "fuzz/trace.h"

namespace lsg {

/// One named FSM policy the fuzzer rotates through, so every grammar
/// branch — joins, nesting, aggregates, and all DML statement classes —
/// gets coverage.
struct FuzzProfile {
  std::string name;
  QueryProfile profile;
};

/// The fixed profile rotation: "default", "full" (everything incl. DML),
/// "nested" (depth 2), "wide" (more predicates/items), "dml" (DML only),
/// "spj" (select-project-join only). Trace files reference profiles by
/// index into this list, so new profiles are only ever appended.
const std::vector<FuzzProfile>& FuzzProfiles();

struct FuzzOptions {
  /// Datasets to fuzz; empty means every bundled one (FuzzDatasetNames()).
  std::vector<std::string> datasets;
  int episodes = 1000;  ///< episodes per dataset
  uint64_t seed = 7;
  /// Scale factor for the synthetic benchmarks. Small by default: the
  /// reference evaluator is deliberately quadratic, so fuzzing wants many
  /// small episodes over few large ones.
  double scale = 0.05;
  int values_per_column = 8;  ///< vocabulary sampling width
  std::string corpus_dir;     ///< failure artifacts written here if set
  bool shrink = true;         ///< delta-debug failing traces
  int max_failures = 16;      ///< stop a dataset after this many failures
  bool verbose = false;       ///< progress + failure logging via LSG_LOG
  OracleOptions oracle;
};

struct FuzzRunStats {
  uint64_t episodes = 0;  ///< episodes generated and checked
  uint64_t skipped = 0;   ///< episodes with a skipped check (work bounds)
  int shrink_probes = 0;  ///< candidate traces evaluated while shrinking
  /// Every failure, already shrunk when shrinking is on (and saved under
  /// corpus_dir when set).
  std::vector<EpisodeTrace> failures;

  std::string ToString() const;
};

/// Runs the fuzzing loop: for every dataset, drives `episodes` randomized
/// FSM walks through the full oracle stack, capturing, shrinking, and
/// serializing every failure as a replayable corpus artifact.
StatusOr<FuzzRunStats> RunFuzz(const FuzzOptions& options);

/// Replays one corpus artifact deterministically: rebuilds the database,
/// vocabulary, and FSM from the trace header, replays the action trace,
/// and re-runs the oracle stack. Returns the input trace with its oracle/
/// detail/sql fields overwritten by the re-run (oracle empty = clean).
StatusOr<EpisodeTrace> ReplayTraceEpisode(
    const EpisodeTrace& trace, const OracleOptions& oracle = OracleOptions());

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FUZZ_FUZZER_H_
