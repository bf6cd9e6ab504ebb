#include "service/model_registry.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "nn/serialize.h"

namespace lsg {

namespace {

template <typename T>
bool IsReady(const std::shared_future<T>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

}  // namespace

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
  std::promise<Model> promise;
  std::shared_future<Model> model;
  bool creator = false;
  {
    MutexLock lock(&registry_mu_);
    Slot& slot = models_[key];
    if (!slot.model.valid()) {
      slot.model = promise.get_future().share();
      creator = true;
      metrics_->cache_misses.Inc();
    }
    slot.last_used = ++lru_clock_;
    model = slot.model;
    if (creator) EvictIfNeeded();
  }

  Acquired out;
  if (!creator) {
    if (!IsReady(model)) metrics_->dedup_waits.Inc();
    const Model& built = model.get();
    if (!built.ok()) return built.status();
    metrics_->cache_hits.Inc();
    out.snapshot = *built;
    out.cache_hit = true;
    return out;
  }

  Model built = Build(key, c, train_seed, &out.warm_start);
  if (!built.ok()) {
    // Drop the failed bucket before publishing, so a later request retries
    // instead of being pinned to the stale error. Eviction skips slots that
    // are not ready, so the slot under `key` is still this one.
    MutexLock lock(&registry_mu_);
    models_.erase(key);
  }
  promise.set_value(built);
  if (!built.ok()) return built.status();
  out.snapshot = std::move(built).value();
  return out;
}

ModelRegistry::Model ModelRegistry::Build(const ConstraintKey& key,
                                          const Constraint& c,
                                          uint64_t train_seed,
                                          bool* warm_start) {
  LearnedSqlGenOptions opts = base_;
  opts.trainer.seed = train_seed;
  // The pipeline lives only until its snapshot is taken.
  LSG_ASSIGN_OR_RETURN(std::unique_ptr<LearnedSqlGen> gen,
                       LearnedSqlGen::Create(context_, opts));
  // A spill file from a past eviction (or process) beats retraining.
  const std::string spill = SpillPath(key);
  if (!spill.empty() && std::filesystem::exists(spill)) {
    const Status status = gen->LoadModel(c, spill);
    if (status.ok()) {
      *warm_start = true;
      metrics_->disk_warm_starts.Inc();
      return gen->snapshot();
    }
    LSG_LOG(Warning) << "warm-start from " << spill << " failed ("
                     << status.ToString() << "); retraining";
  }
  LSG_RETURN_IF_ERROR(gen->Train(c));
  metrics_->trainings.Inc();
  metrics_->AddTrainSeconds(gen->last_train_seconds());
  return gen->snapshot();
}

void ModelRegistry::EvictIfNeeded() {
  while (models_.size() > options_.capacity) {
    // The least recently used slot whose model is published. last_used
    // values are unique (a monotone clock), so the victim is unique.
    auto victim = models_.end();
    for (auto it = models_.begin(); it != models_.end(); ++it) {
      if ((victim == models_.end() ||
           it->second.last_used < victim->second.last_used) &&
          IsReady(it->second.model)) {
        victim = it;
      }
    }
    // Every resident model is still being built; the map exceeds capacity
    // until one of them is.
    if (victim == models_.end()) return;
    if (!options_.spill_dir.empty()) {
      const std::shared_ptr<const ServingSnapshot>& snapshot =
          *victim->second.model.get();
      const Status s =
          SaveParams(snapshot->actor->Params(), SpillPath(victim->first));
      if (!s.ok()) {
        LSG_LOG(Warning) << "spill of " << victim->first.ToString()
                         << " failed: " << s.ToString();
      }
    }
    models_.erase(victim);
    metrics_->evictions.Inc();
  }
}

}  // namespace lsg
