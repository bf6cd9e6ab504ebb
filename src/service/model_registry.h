#ifndef LEARNEDSQLGEN_SERVICE_MODEL_REGISTRY_H_
#define LEARNEDSQLGEN_SERVICE_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/sync.h"
#include "core/generator.h"
#include "service/constraint_key.h"
#include "service/service_metrics.h"

namespace lsg {

/// A cached, trained pipeline for one constraint bucket. The builder
/// trains without holding `mu`, then publishes `gen`, `snapshot`, `status`
/// and `ready` under it, so concurrent requesters of the same bucket wait
/// on `ready_cv` while the first one trains.
struct ModelEntry {
  Mutex mu;
  CondVar ready_cv;
  bool ready LSG_GUARDED_BY(mu) = false;
  Status status LSG_GUARDED_BY(mu);  ///< train/load outcome
  /// Owns everything `snapshot` points into; const once `ready`, and only
  /// read afterwards (spill on eviction).
  std::unique_ptr<LearnedSqlGen> gen LSG_GUARDED_BY(mu);
  /// The first requester's exact constraint.
  Constraint constraint LSG_GUARDED_BY(mu);
  /// Immutable serving view of `gen`, published with it; every ready entry
  /// has one. Readers copy the shared_ptr under `mu`, then decode
  /// lock-free: every component the snapshot points to is const after
  /// `ready`, so batch mates never serialize on this entry's mutex.
  std::shared_ptr<const ServingSnapshot> snapshot LSG_GUARDED_BY(mu);
};

/// Constraint-keyed cache of trained pipelines with an LRU capacity bound.
///
/// - A second request for the same bucket reuses the cached model (hit).
/// - Concurrent first requests for one bucket are deduplicated: the first
///   caller trains, the rest block on the entry until it is ready.
/// - When the map exceeds `capacity`, the least-recently-used idle model is
///   spilled to `spill_dir` (via LearnedSqlGen::SaveModel) and dropped; a
///   later request for that bucket warm-starts from the spill file instead
///   of retraining.
///
/// Thread-safe. Lock order is registry mutex -> entry mutex; callers that
/// hold an entry's mutex must not call back into the registry. While
/// holding registry_mu_ an entry's mutex is only ever *try*-locked
/// (eviction), never blocked on. Decoding holds no entry lock at all: it
/// runs on the entry's snapshot, and its shared_ptr to the entry keeps an
/// evicted model alive until the decode ends.
class ModelRegistry {
 public:
  struct Options {
    size_t capacity = 8;
    /// Directory for evicted models ("" disables spill: evictions discard).
    /// Created on demand.
    std::string spill_dir;
  };

  /// Every pipeline the registry builds shares `context` (which must
  /// match `base`'s vocabulary), so building one costs O(1).
  /// `base` configures every pipeline; the trainer seed is overridden per
  /// Acquire call.
  ModelRegistry(std::shared_ptr<const DatabaseContext> context,
                const LearnedSqlGenOptions& base, const Options& options,
                ServiceMetrics* metrics);

  /// What Acquire hands back: a shared entry (kept alive even if evicted
  /// while in use) plus how it was obtained.
  struct Acquired {
    std::shared_ptr<ModelEntry> entry;
    bool cache_hit = false;
    bool warm_start = false;
  };

  /// Returns a ready model for the constraint's bucket, training or
  /// warm-starting it if needed. `train_seed` seeds the trainer when this
  /// call ends up training (ignored on hits), keeping service runs
  /// reproducible at concurrency 1. Blocks while another caller trains the
  /// same bucket. On training failure the bucket is removed again so a
  /// later request can retry.
  StatusOr<Acquired> Acquire(const Constraint& c, uint64_t train_seed)
      LSG_EXCLUDES(registry_mu_);

  /// Models currently resident (test/diagnostic hook).
  size_t size() const LSG_EXCLUDES(registry_mu_);

  /// Spill filename a bucket would use ("" when spill is disabled).
  std::string SpillPathFor(const Constraint& c) const;

 private:
  struct Slot {
    std::shared_ptr<ModelEntry> entry;
    uint64_t last_used = 0;
  };

  /// Builds + trains (or disk-loads) the pipeline for `entry`. Called by
  /// the entry's creator without registry_mu_ held.
  void BuildEntry(const ConstraintKey& key, ModelEntry* entry,
                  uint64_t train_seed, bool* warm_start)
      LSG_EXCLUDES(registry_mu_);

  /// Evicts LRU idle entries until size() <= capacity. An entry is only a
  /// victim if its mutex can be try-locked AND it is ready, and the spill
  /// happens under that same try-lock — probing and spilling are one
  /// critical section, so an entry observed idle cannot become busy before
  /// it is written out (and eviction never blocks on an entry while the
  /// whole registry is held).
  void EvictIfNeeded() LSG_REQUIRES(registry_mu_);

  std::shared_ptr<const DatabaseContext> context_;
  LearnedSqlGenOptions base_;
  Options options_;
  ServiceMetrics* metrics_;

  mutable Mutex registry_mu_;
  std::unordered_map<ConstraintKey, Slot, ConstraintKeyHash> models_
      LSG_GUARDED_BY(registry_mu_);
  uint64_t lru_clock_ LSG_GUARDED_BY(registry_mu_) = 0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_SERVICE_MODEL_REGISTRY_H_
