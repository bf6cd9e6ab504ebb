#include "service/model_registry.h"

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "nn/serialize.h"

namespace lsg {

/// A cached model for one constraint bucket. Its creator trains without
/// holding `mu`, then publishes `snapshot`, `status` and `ready` under it,
/// so concurrent requesters of the same bucket wait on `ready_cv` while the
/// first one trains.
///
/// Lock order is registry_mu_ -> ModelEntry::mu, and registry_mu_ only
/// ever *try*-locks an entry (eviction). An entry's mutex guards a few
/// field reads and writes, never training or decoding.
struct ModelRegistry::ModelEntry {
  Mutex mu;
  CondVar ready_cv;
  bool ready LSG_GUARDED_BY(mu) = false;
  Status status LSG_GUARDED_BY(mu);  ///< train/load outcome
  /// The first requester's exact constraint.
  Constraint constraint LSG_GUARDED_BY(mu);
  /// The bucket's model; every ready entry with an ok status has one.
  std::shared_ptr<const ServingSnapshot> snapshot LSG_GUARDED_BY(mu);
};

ModelRegistry::ModelRegistry(std::shared_ptr<const DatabaseContext> context,
                             const LearnedSqlGenOptions& base,
                             const Options& options, ServiceMetrics* metrics)
    : context_(std::move(context)),
      base_(base),
      options_(options),
      metrics_(metrics) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (!options_.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.spill_dir, ec);
    if (ec) {
      LSG_LOG(Warning) << "cannot create spill dir " << options_.spill_dir
                       << " (" << ec.message() << "); spill disabled";
      options_.spill_dir.clear();
    }
  }
}

size_t ModelRegistry::size() const {
  MutexLock lock(&registry_mu_);
  return models_.size();
}

std::string ModelRegistry::SpillPathFor(const Constraint& c) const {
  return SpillPath(BucketOf(c));
}

std::string ModelRegistry::SpillPath(const ConstraintKey& key) const {
  if (options_.spill_dir.empty()) return "";
  return options_.spill_dir + "/" + key.ToString() + ".model";
}

StatusOr<ModelRegistry::Acquired> ModelRegistry::Acquire(
    const Constraint& c, uint64_t train_seed) {
  const ConstraintKey key = BucketOf(c);
  std::shared_ptr<ModelEntry> entry;
  bool creator = false;
  {
    MutexLock lock(&registry_mu_);
    Slot& slot = models_[key];
    if (slot.entry == nullptr) {
      slot.entry = std::make_shared<ModelEntry>();
      {
        // registry -> entry order; uncontended (the entry is not visible
        // to any other thread until registry_mu_ is released).
        MutexLock el(&slot.entry->mu);
        slot.entry->constraint = c;
      }
      creator = true;
      metrics_->cache_misses.Inc();
    }
    slot.last_used = ++lru_clock_;
    entry = slot.entry;
    if (creator) EvictIfNeeded();
  }

  ModelEntry* e = entry.get();
  if (!creator) {
    MutexLock el(&e->mu);
    if (!e->ready) {
      metrics_->dedup_waits.Inc();
      while (!e->ready) e->ready_cv.Wait(e->mu);
    }
    if (!e->status.ok()) return e->status;
    metrics_->cache_hits.Inc();
    Acquired out;
    out.snapshot = e->snapshot;
    out.cache_hit = true;
    return out;
  }

  bool warm_start = false;
  BuildEntry(key, e, train_seed, &warm_start);

  Status status;
  Acquired out;
  {
    MutexLock el(&e->mu);
    status = e->status;
    out.snapshot = e->snapshot;
  }
  e->ready_cv.NotifyAll();
  if (!status.ok()) {
    // Drop the failed bucket so a later request retries instead of being
    // pinned to the stale error.
    MutexLock lock(&registry_mu_);
    auto it = models_.find(key);
    if (it != models_.end() && it->second.entry == entry) models_.erase(it);
    return status;
  }
  out.warm_start = warm_start;
  return out;
}

void ModelRegistry::BuildEntry(const ConstraintKey& key, ModelEntry* entry,
                               uint64_t train_seed, bool* warm_start) {
  // Build without holding entry->mu, so same-bucket requesters reach the
  // ready_cv wait (and count as dedup waits) instead of blocking on the
  // mutex for the whole training. Eviction skips entries that are not
  // ready, so nothing reads this one until `ready` is published below.
  Constraint constraint;
  {
    MutexLock el(&entry->mu);
    constraint = entry->constraint;
  }
  LearnedSqlGenOptions opts = base_;
  opts.trainer.seed = train_seed;
  std::shared_ptr<const ServingSnapshot> snapshot;
  auto built = LearnedSqlGen::Create(context_, opts);
  Status status = built.status();
  if (status.ok()) {
    // The pipeline lives only until its snapshot is taken.
    std::unique_ptr<LearnedSqlGen> gen = std::move(built).value();
    // A spill file from a past eviction (or process) beats retraining.
    const std::string spill = SpillPath(key);
    if (!spill.empty() && std::filesystem::exists(spill)) {
      status = gen->LoadModel(constraint, spill);
      if (status.ok()) {
        *warm_start = true;
        metrics_->disk_warm_starts.Inc();
      } else {
        LSG_LOG(Warning) << "warm-start from " << spill << " failed ("
                         << status.ToString() << "); retraining";
      }
    }
    if (!*warm_start) {
      status = gen->Train(constraint);
      if (status.ok()) {
        metrics_->trainings.Inc();
        metrics_->AddTrainSeconds(gen->last_train_seconds());
      }
    }
    if (status.ok()) snapshot = gen->snapshot();
  }
  MutexLock el(&entry->mu);
  entry->snapshot = std::move(snapshot);
  entry->status = status;
  entry->ready = true;
}

void ModelRegistry::EvictIfNeeded() {
  while (models_.size() > options_.capacity) {
    // Visit candidates in LRU order; the first one whose mutex try-locks
    // AND that is built is the victim.
    std::vector<std::pair<uint64_t, ConstraintKey>> order;
    order.reserve(models_.size());
    for (const auto& [key, slot] : models_) {
      order.emplace_back(slot.last_used, key);
    }
    // last_used values are unique (a monotone clock), so first-only
    // ordering is total.
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    bool evicted = false;
    for (const auto& [used, key] : order) {
      (void)used;
      auto it = models_.find(key);
      if (it == models_.end()) continue;
      std::shared_ptr<ModelEntry> entry = it->second.entry;
      ModelEntry* e = entry.get();
      if (!e->mu.TryLock()) continue;  // held right now: skip
      const bool built = e->ready && e->status.ok();
      if (built && !options_.spill_dir.empty()) {
        const Status s =
            SaveParams(e->snapshot->actor->Params(), SpillPath(key));
        if (!s.ok()) {
          LSG_LOG(Warning) << "spill of " << key.ToString() << " failed: "
                           << s.ToString();
        }
      }
      e->mu.Unlock();
      if (!built) continue;
      models_.erase(it);
      metrics_->evictions.Inc();
      evicted = true;
      break;
    }
    // Every resident model is still training (or momentarily locked); the
    // map exceeds capacity until one of them is built.
    if (!evicted) return;
  }
}

}  // namespace lsg
