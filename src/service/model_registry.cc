#include "service/model_registry.h"

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace lsg {

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
  if (options_.spill_dir.empty()) return "";
  return options_.spill_dir + "/" + BucketOf(c).ToString() + ".model";
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
    out.entry = std::move(entry);
    out.cache_hit = true;
    return out;
  }

  bool warm_start = false;
  BuildEntry(key, e, train_seed, &warm_start);

  Status status;
  {
    MutexLock el(&e->mu);
    status = e->status;
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
  Acquired out;
  out.entry = std::move(entry);
  out.warm_start = warm_start;
  return out;
}

void ModelRegistry::BuildEntry(const ConstraintKey& key, ModelEntry* entry,
                               uint64_t train_seed, bool* warm_start) {
  // Build into a local pipeline without holding entry->mu, so same-bucket
  // requesters reach the ready_cv wait (and count as dedup waits) instead
  // of blocking on the mutex for the whole training. Only this thread
  // touches the entry's model until `ready` is published below; eviction
  // skips entries that are not ready.
  Constraint constraint;
  {
    MutexLock el(&entry->mu);
    constraint = entry->constraint;
  }
  LearnedSqlGenOptions opts = base_;
  opts.trainer.seed = train_seed;
  std::unique_ptr<LearnedSqlGen> gen;
  std::shared_ptr<const ServingSnapshot> snapshot;
  auto built = LearnedSqlGen::Create(context_, opts);
  Status status = built.status();
  if (status.ok()) {
    gen = std::move(built).value();
    // A spill file from a past eviction (or process) beats retraining.
    std::string spill;
    if (!options_.spill_dir.empty()) {
      spill = options_.spill_dir + "/" + key.ToString() + ".model";
      if (!std::filesystem::exists(spill)) spill.clear();
    }
    if (!spill.empty()) {
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
  }
  if (status.ok()) {
    // Publish the copy-free serving view; a trained pipeline always has one.
    auto snap = gen->MakeServingSnapshot();
    status = snap.status();
    if (status.ok()) {
      snapshot = std::make_shared<const ServingSnapshot>(std::move(*snap));
    }
  }
  MutexLock el(&entry->mu);
  if (status.ok()) {
    entry->gen = std::move(gen);
    entry->snapshot = std::move(snapshot);
  }
  entry->status = status;
  entry->ready = true;
}

void ModelRegistry::EvictIfNeeded() {
  while (models_.size() > options_.capacity) {
    // Visit candidates in LRU order; the first one whose mutex try-locks
    // AND that is ready is the least-recently-used idle model. Probing and
    // spilling happen under one and the same try-lock: the old two-phase
    // form (probe, unlock, re-lock to spill) had a window where a worker
    // holding the entry's shared_ptr could start generating between the
    // probe and the spill, so the "evict only idle models" invariant was
    // violated and — worse — the blocking re-lock could park the whole
    // registry behind a multi-second generation.
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
      const bool idle = e->ready && e->status.ok();
      if (idle && !options_.spill_dir.empty() && e->gen != nullptr) {
        std::string path = options_.spill_dir + "/" + key.ToString() +
                           ".model";
        if (Status s = e->gen->SaveModel(path); !s.ok()) {
          LSG_LOG(Warning) << "spill of " << key.ToString() << " failed: "
                           << s.ToString();
        }
      }
      e->mu.Unlock();
      if (!idle) continue;
      models_.erase(it);
      metrics_->evictions.Inc();
      evicted = true;
      break;
    }
    // Every resident model is busy or in training; the map transiently
    // exceeds capacity until one of them quiesces.
    if (!evicted) return;
  }
}

}  // namespace lsg
