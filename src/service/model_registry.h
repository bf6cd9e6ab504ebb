#ifndef LEARNEDSQLGEN_SERVICE_MODEL_REGISTRY_H_
#define LEARNEDSQLGEN_SERVICE_MODEL_REGISTRY_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/sync.h"
#include "core/generator.h"
#include "service/constraint_key.h"
#include "service/service_metrics.h"

namespace lsg {

/// Constraint-keyed cache of trained models with an LRU capacity bound. A
/// bucket keeps only its ServingSnapshot: the pipeline that trained it (or
/// loaded it from a spill file) is dropped as soon as the snapshot exists.
///
/// - A second request for the same bucket reuses the cached model (hit).
/// - Concurrent first requests for one bucket are deduplicated: the first
///   caller trains, the rest wait on the bucket's future until it is ready.
/// - When the map exceeds `capacity`, the least-recently-used built model is
///   spilled to `spill_dir` (the snapshot's actor parameters) and dropped;
///   a later request for that bucket warm-starts from the spill file
///   instead of retraining.
///
/// Thread-safe; its one lock is internal and is never held while a model is
/// built or waited for. Decoding holds none: it runs on the acquired
/// snapshot, which owns what it reads, so an evicted model lives on until
/// its last decode ends.
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

  /// What Acquire hands back: the bucket's model plus how it was obtained.
  struct Acquired {
    std::shared_ptr<const ServingSnapshot> snapshot;
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
  using Model = StatusOr<std::shared_ptr<const ServingSnapshot>>;

  /// One bucket: the model its first requester publishes once built. A
  /// failed build erases its slot before publishing the error, so every
  /// ready slot in the map holds a model.
  struct Slot {
    std::shared_future<Model> model;
    uint64_t last_used = 0;
  };

  /// SpillPathFor over a bucket key.
  std::string SpillPath(const ConstraintKey& key) const;

  /// Trains (or disk-loads) the model for `c`'s bucket. Called by the
  /// slot's creator without registry_mu_ held.
  Model Build(const ConstraintKey& key, const Constraint& c,
              uint64_t train_seed, bool* warm_start) LSG_EXCLUDES(registry_mu_);

  /// Evicts least-recently-used ready slots until size() <= capacity,
  /// spilling each under registry_mu_. Slots still building are skipped
  /// (the map then stays over capacity until one is built). Evicting a
  /// model that is decoding is safe: its decoders hold the snapshot.
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
