#ifndef LEARNEDSQLGEN_FUZZ_FUZZER_H_
#define LEARNEDSQLGEN_FUZZ_FUZZER_H_

#include <cstdint>
#include <memory>
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

  /// Fault injection for the compiled-FSM oracle: "mask-bit" flips a legal
  /// token off in a compiled mask, "transition-swap" crosses two compiled
  /// edges. The run must then report compiled-fsm violations — proof the
  /// differential harness actually detects table corruption.
  std::string inject_fsm_bug;

  /// Compile caps for the per-(dataset, profile) oracle tables. Pairs past
  /// the caps are skipped (the compiled oracle has nothing to check there);
  /// the small bundled datasets all fit.
  int compiled_max_states = 120000;
  int compiled_max_millis = 5000;
};

struct FuzzRunStats {
  uint64_t episodes = 0;  ///< episodes generated and checked
  uint64_t skipped = 0;   ///< episodes with a skipped check (work bounds)
  int shrink_probes = 0;  ///< candidate traces evaluated while shrinking
  int compiled_tables = 0;   ///< (dataset, profile) pairs compiled
  int compiled_skipped = 0;  ///< pairs past the compile caps (not checked)
  /// Every failure, already shrunk when shrinking is on (and saved under
  /// corpus_dir when set).
  std::vector<EpisodeTrace> failures;

  std::string ToString() const;
};

/// The databases and per-profile DatabaseContexts fuzz runs build. A
/// caller that fuzzes several times in one process hands every run the
/// same fixtures, so each database is built, and each profile's FSM table
/// compiled — or found past the compile caps — once per process instead
/// of once per run. The oracle mutates a fixture database only inside a
/// check and restores it before returning, so runs cannot leak state into
/// each other. Not thread-safe.
class FuzzFixtures {
 public:
  struct Dataset;

  FuzzFixtures();
  ~FuzzFixtures();
  FuzzFixtures(const FuzzFixtures&) = delete;
  FuzzFixtures& operator=(const FuzzFixtures&) = delete;

  /// The fixture for `dataset` at `options`' scale, vocabulary width and
  /// compile caps, built on first request.
  StatusOr<Dataset*> Get(const std::string& dataset,
                         const FuzzOptions& options);

 private:
  std::vector<std::unique_ptr<Dataset>> datasets_;
};

/// Runs the fuzzing loop: for every dataset, drives `episodes` randomized
/// FSM walks through the full oracle stack, capturing, shrinking, and
/// serializing every failure as a replayable corpus artifact.
StatusOr<FuzzRunStats> RunFuzz(const FuzzOptions& options);

/// RunFuzz over `fixtures` (which must outlive the call).
StatusOr<FuzzRunStats> RunFuzz(const FuzzOptions& options,
                               FuzzFixtures* fixtures);

/// Replays one corpus artifact deterministically: rebuilds the database,
/// vocabulary, and FSM from the trace header, replays the action trace,
/// and re-runs the oracle stack. Returns the input trace with its oracle/
/// detail/sql fields overwritten by the re-run (oracle empty = clean).
StatusOr<EpisodeTrace> ReplayTraceEpisode(
    const EpisodeTrace& trace, const OracleOptions& oracle = OracleOptions());

/// ReplayTraceEpisode over `fixtures` (which must outlive the call).
StatusOr<EpisodeTrace> ReplayTraceEpisode(const EpisodeTrace& trace,
                                          const OracleOptions& oracle,
                                          FuzzFixtures* fixtures);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FUZZ_FUZZER_H_
