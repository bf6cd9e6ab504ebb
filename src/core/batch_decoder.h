#ifndef LEARNEDSQLGEN_CORE_BATCH_DECODER_H_
#define LEARNEDSQLGEN_CORE_BATCH_DECODER_H_

#include "core/generator.h"

namespace lsg {

/// One generation request to decode. Inputs mirror the service request
/// (constraint, n, batch-vs-satisfied semantics, the request's RNG stream);
/// outputs land in `status`/`report`, and `rng` is left advanced past
/// every draw the request made.
struct BatchDecodeItem {
  /// The constraint this request's queries are judged against (satisfied
  /// flags, the report's count, the satisfied-mode stopping point). The
  /// snapshot's model may have been trained for another constraint of the
  /// same registry bucket; the policy never reads it, so only the judging
  /// follows the request.
  Constraint constraint;
  int n = 0;
  /// true → GenerateBatch semantics (exactly n attempts, keep everything);
  /// false → GenerateSatisfied semantics (until n satisfied or the
  /// n·attempts_factor budget runs out, keep satisfied only).
  bool batch_mode = false;
  /// This request's private sampling stream. The service seeds it from
  /// (seed, request), so no other request can perturb it; LearnedSqlGen
  /// hands in (and takes back) its internal stream.
  Rng rng;

  Status status;
  GenerationReport report;
};

/// The one decode loop, which LearnedSqlGen's Generate* and the service
/// both run: decodes `item` against the immutable `snapshot`, one episode
/// at a time and one token per step (PolicyNetwork::Step with a private
/// workspace, so any number of threads may decode over one snapshot
/// lock-free). The item owns its environment, RNG stream and episode. A
/// degenerate softmax row or an environment error ends the item with that
/// status.
void DecodeItem(const ServingSnapshot& snapshot, BatchDecodeItem* item);

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_BATCH_DECODER_H_
