#ifndef LEARNEDSQLGEN_SERVICE_SERVICE_METRICS_H_
#define LEARNEDSQLGEN_SERVICE_SERVICE_METRICS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics_registry.h"

namespace lsg {

/// Point-in-time view of the service counters, safe to take while workers
/// run. Seconds are accumulated as integer microseconds internally, so the
/// snapshot is tear-free without any global lock.
struct ServiceMetricsSnapshot {
  uint64_t requests_submitted = 0;
  uint64_t requests_rejected = 0;  ///< backpressure fail-fast + post-shutdown
  /// Rejections split by reason, so admission-control dashboards can tell
  /// backpressure (queue_full, retryable) from drain (shutdown, terminal).
  /// Invariant: rejected == rejected_queue_full + rejected_shutdown.
  uint64_t requests_rejected_queue_full = 0;
  uint64_t requests_rejected_shutdown = 0;
  uint64_t requests_completed = 0;
  uint64_t requests_failed = 0;

  uint64_t cache_hits = 0;        ///< registry served an already-built model
  uint64_t cache_misses = 0;      ///< bucket had to be built (train or disk)
  uint64_t trainings = 0;         ///< models trained from scratch
  uint64_t disk_warm_starts = 0;  ///< models restored from a spill file
  uint64_t evictions = 0;         ///< models pushed out by the LRU bound
  uint64_t dedup_waits = 0;       ///< requests that waited on another's train

  uint64_t queue_depth_high_water = 0;

  uint64_t attempts = 0;           ///< generation episodes run
  uint64_t queries_generated = 0;  ///< queries returned to callers
  uint64_t queries_satisfied = 0;  ///< ... of which met their constraint

  double train_seconds = 0.0;
  double generate_seconds = 0.0;
  double queue_seconds = 0.0;  ///< summed request time spent queued
  double busy_seconds = 0.0;   ///< summed worker handle time (utilization)

  double cache_hit_rate() const {
    uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
  double satisfied_rate() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(queries_satisfied) /
                               static_cast<double>(attempts);
  }

  /// One JSON object (keys above, snake_case) for dashboards and benches.
  std::string ToJson() const;
};

/// The service's counter set, shared by the queue, registry and workers.
/// A thin view over an obs::MetricsRegistry: every counter lives in the
/// registry under the `service.` namespace (the same naming scheme the
/// training-side instrumentation uses), and the members here are just
/// cached handles, so serving metrics show up in registry snapshots
/// (lsgtrace) with no duplicated atomic plumbing.
///
/// By default each ServiceMetrics owns a private registry (per-service
/// isolation for tests and embedded services); pass an external registry —
/// e.g. &obs::MetricsRegistry::Global() — to join a shared namespace.
class ServiceMetrics {
 private:
  // Declared (and therefore initialized) before the handle references
  // below, which bind into *registry_.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;

 public:
  explicit ServiceMetrics(obs::MetricsRegistry* registry = nullptr);

  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  void AddTrainSeconds(double s) { train_micros.Add(Micros(s)); }
  void AddGenerateSeconds(double s) { generate_micros.Add(Micros(s)); }
  void AddQueueSeconds(double s) { queue_micros.Add(Micros(s)); }
  void AddBusySeconds(double s) { busy_micros.Add(Micros(s)); }

  ServiceMetricsSnapshot Snapshot() const;

  /// The registry the handles point into (for snapshots of the full
  /// namespace, including the latency histograms below).
  obs::MetricsRegistry& registry() { return *registry_; }

  obs::Counter& requests_submitted;
  obs::Counter& requests_rejected;
  obs::Counter& requests_rejected_queue_full;
  obs::Counter& requests_rejected_shutdown;
  obs::Counter& requests_completed;
  obs::Counter& requests_failed;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& trainings;
  obs::Counter& disk_warm_starts;
  obs::Counter& evictions;
  obs::Counter& dedup_waits;
  obs::Counter& attempts;
  obs::Counter& queries_generated;
  obs::Counter& queries_satisfied;
  obs::Counter& train_micros;
  obs::Counter& generate_micros;
  obs::Counter& queue_micros;
  obs::Counter& busy_micros;

  /// Request-level latency distributions (always recorded: these events
  /// are per-request, far off the step hot path).
  obs::Histogram& queue_wait_ns;
  obs::Histogram& handle_ns;

 private:
  static uint64_t Micros(double seconds) {
    return seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e6);
  }
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_SERVICE_SERVICE_METRICS_H_
