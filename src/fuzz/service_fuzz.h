#ifndef LEARNEDSQLGEN_FUZZ_SERVICE_FUZZ_H_
#define LEARNEDSQLGEN_FUZZ_SERVICE_FUZZ_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace lsg {

struct ServiceFuzzOptions {
  std::string dataset = "score";
  double scale = 0.05;
  int rounds = 4;             ///< independent service lifecycles
  int requests_per_round = 16;
  uint64_t seed = 7;
  int train_epochs = 2;       ///< tiny on purpose; we hunt races, not quality
  bool verbose = false;
};

/// Randomized stress of the concurrent GenerationService: every round
/// creates a service with a random worker count, queue capacity, and
/// registry size, floods it with a random constraint mix (point/range,
/// cardinality/cost, Submit and TrySubmit), and on odd rounds shuts the
/// service down mid-run from a racing thread, once the producer has had
/// k requests accepted (k drawn per round from [1, requests_per_round)),
/// so the accepted ones drain through the registry while the rest race
/// the shutdown. Half the rounds (0, 3, 4,
/// 7, ...: both shutdown modes every four rounds) give the model registry
/// a fresh spill directory, so evicted buckets warm-start from disk.
/// Invariants checked:
///   - every submitted future becomes ready (no hangs, no lost promises)
///   - per-request statuses are OK or an orderly rejection
///   - metrics stay consistent (completed + failed + rejected == submitted,
///     queue high-water within capacity)
///   - the registry's counters agree: one hit or miss per finished request,
///     one training or warm start per miss, no more evictions than misses,
///     and no warm start without a spill directory
///   - Shutdown is idempotent
/// Run it under `LSG_SANITIZE=thread` to turn data races into failures.
/// Returns Internal with a description on any violation.
Status FuzzGenerationService(const ServiceFuzzOptions& options);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_FUZZ_SERVICE_FUZZ_H_
