#include "service/service_metrics.h"

#include "common/string_util.h"

namespace lsg {

namespace {
// Resolves the backing registry before the reference members bind: either
// the caller's shared registry, or a fresh private one (ownership is
// captured into `owned` so the ctor initializer list stays exception-safe).
obs::MetricsRegistry* ResolveRegistry(
    obs::MetricsRegistry* external,
    std::unique_ptr<obs::MetricsRegistry>& owned) {
  if (external != nullptr) return external;
  owned = std::make_unique<obs::MetricsRegistry>();
  return owned.get();
}
}  // namespace

ServiceMetrics::ServiceMetrics(obs::MetricsRegistry* registry)
    : registry_(ResolveRegistry(registry, owned_registry_)),
      requests_submitted(registry_->GetCounter("service.requests_submitted")),
      requests_rejected(registry_->GetCounter("service.requests_rejected")),
      requests_rejected_queue_full(
          registry_->GetCounter("service.requests_rejected_queue_full")),
      requests_rejected_shutdown(
          registry_->GetCounter("service.requests_rejected_shutdown")),
      requests_completed(registry_->GetCounter("service.requests_completed")),
      requests_failed(registry_->GetCounter("service.requests_failed")),
      cache_hits(registry_->GetCounter("service.cache_hits")),
      cache_misses(registry_->GetCounter("service.cache_misses")),
      trainings(registry_->GetCounter("service.trainings")),
      disk_warm_starts(registry_->GetCounter("service.disk_warm_starts")),
      evictions(registry_->GetCounter("service.evictions")),
      dedup_waits(registry_->GetCounter("service.dedup_waits")),
      attempts(registry_->GetCounter("service.attempts")),
      queries_generated(registry_->GetCounter("service.queries_generated")),
      queries_satisfied(registry_->GetCounter("service.queries_satisfied")),
      train_micros(registry_->GetCounter("service.train_micros")),
      generate_micros(registry_->GetCounter("service.generate_micros")),
      queue_micros(registry_->GetCounter("service.queue_micros")),
      busy_micros(registry_->GetCounter("service.busy_micros")),
      queue_wait_ns(registry_->GetHistogram("service.queue_wait_ns")),
      handle_ns(registry_->GetHistogram("service.handle_ns")) {}

ServiceMetricsSnapshot ServiceMetrics::Snapshot() const {
  ServiceMetricsSnapshot s;
  s.requests_submitted = requests_submitted.Value();
  s.requests_rejected = requests_rejected.Value();
  s.requests_rejected_queue_full = requests_rejected_queue_full.Value();
  s.requests_rejected_shutdown = requests_rejected_shutdown.Value();
  s.requests_completed = requests_completed.Value();
  s.requests_failed = requests_failed.Value();
  s.cache_hits = cache_hits.Value();
  s.cache_misses = cache_misses.Value();
  s.trainings = trainings.Value();
  s.disk_warm_starts = disk_warm_starts.Value();
  s.evictions = evictions.Value();
  s.dedup_waits = dedup_waits.Value();
  s.attempts = attempts.Value();
  s.queries_generated = queries_generated.Value();
  s.queries_satisfied = queries_satisfied.Value();
  s.train_seconds = static_cast<double>(train_micros.Value()) / 1e6;
  s.generate_seconds = static_cast<double>(generate_micros.Value()) / 1e6;
  s.queue_seconds = static_cast<double>(queue_micros.Value()) / 1e6;
  s.busy_seconds = static_cast<double>(busy_micros.Value()) / 1e6;
  return s;
}

std::string ServiceMetricsSnapshot::ToJson() const {
  std::string out = "{";
  auto add_u64 = [&out](const char* key, uint64_t v) {
    out += StrFormat("\"%s\": %llu, ", key,
                     static_cast<unsigned long long>(v));
  };
  add_u64("requests_submitted", requests_submitted);
  add_u64("requests_rejected", requests_rejected);
  add_u64("requests_rejected_queue_full", requests_rejected_queue_full);
  add_u64("requests_rejected_shutdown", requests_rejected_shutdown);
  add_u64("requests_completed", requests_completed);
  add_u64("requests_failed", requests_failed);
  add_u64("cache_hits", cache_hits);
  add_u64("cache_misses", cache_misses);
  add_u64("trainings", trainings);
  add_u64("disk_warm_starts", disk_warm_starts);
  add_u64("evictions", evictions);
  add_u64("dedup_waits", dedup_waits);
  add_u64("queue_depth_high_water", queue_depth_high_water);
  add_u64("attempts", attempts);
  add_u64("queries_generated", queries_generated);
  add_u64("queries_satisfied", queries_satisfied);
  out += StrFormat(
      "\"cache_hit_rate\": %.4f, \"satisfied_rate\": %.4f, "
      "\"train_seconds\": %.3f, \"generate_seconds\": %.3f, "
      "\"queue_seconds\": %.3f, \"busy_seconds\": %.3f}",
      cache_hit_rate(), satisfied_rate(), train_seconds, generate_seconds,
      queue_seconds, busy_seconds);
  return out;
}

}  // namespace lsg
