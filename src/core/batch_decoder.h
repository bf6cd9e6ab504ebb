#ifndef LEARNEDSQLGEN_CORE_BATCH_DECODER_H_
#define LEARNEDSQLGEN_CORE_BATCH_DECODER_H_

#include <cstdint>
#include <vector>

#include "core/generator.h"

namespace lsg {

/// One generation request inside a decode batch. Inputs mirror the service
/// request (constraint, n, batch-vs-satisfied semantics, the request's RNG
/// stream); outputs land in `status`/`report` when the item retires, and
/// `rng` is left advanced past every draw the item made.
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
  /// (seed, request) so batch-mates cannot perturb it; LearnedSqlGen hands
  /// in (and takes back) its internal stream.
  Rng rng;

  Status status;
  GenerationReport report;
};

/// The one decode loop: drives a group of generation requests against one
/// immutable ServingSnapshot, advancing every in-flight episode one token
/// per step through a single batched LSTM forward
/// (PolicyNetwork::StepBatch). Each item owns a private environment, RNG
/// stream and episode, so its sampled queries are bitwise-identical to
/// decoding it alone (max_lanes = 1, which is what LearnedSqlGen's
/// Generate* run) — batching changes wall-clock only. Items join a lane as
/// slots free up and leave when their budget completes (ragged batching);
/// a degenerate softmax row or environment error fails only that item.
class BatchDecoder {
 public:
  struct Stats {
    uint64_t steps = 0;       ///< batched forward steps executed
    uint64_t lane_steps = 0;  ///< Σ active lanes over those steps
    int peak_lanes = 0;
  };

  /// `snapshot` must outlive the decoder and every Run call.
  BatchDecoder(const ServingSnapshot* snapshot, int max_lanes);

  /// Runs every item to completion (filling item->status / item->report).
  Stats Run(const std::vector<BatchDecodeItem*>& items);

 private:
  struct Lane;

  /// Starts `item` in a fresh lane; returns nullptr if the item finished
  /// without needing any episode (n <= 0).
  std::unique_ptr<Lane> StartItem(BatchDecodeItem* item);
  static void BeginAttempt(const PolicyNetwork& actor, Lane* lane);
  static void FinishItem(Lane* lane);

  const ServingSnapshot* snap_;
  int max_lanes_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_CORE_BATCH_DECODER_H_
