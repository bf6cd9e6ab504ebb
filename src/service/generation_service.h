#ifndef LEARNEDSQLGEN_SERVICE_GENERATION_SERVICE_H_
#define LEARNEDSQLGEN_SERVICE_GENERATION_SERVICE_H_

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/sync.h"
#include "core/generator.h"
#include "service/bounded_queue.h"
#include "service/model_registry.h"
#include "service/service_metrics.h"

namespace lsg {

/// One unit of work for the service: "give me n queries satisfying this
/// constraint".
struct GenerationRequest {
  Constraint constraint;
  int n = 10;         ///< satisfying queries to produce
  bool batch = false; ///< run exactly n attempts (GenerateBatch) instead of
                      ///< generating until n satisfy (GenerateSatisfied)
  uint64_t id = 0;    ///< caller-chosen tag, echoed in the response
};

/// Outcome of one request. Move-only (the report owns query ASTs).
struct GenerationResponse {
  uint64_t id = 0;
  Status status;
  GenerationReport report;   ///< valid when status.ok()
  bool cache_hit = false;    ///< served from an already-built model
  bool warm_start = false;   ///< model restored from disk, not retrained
  int worker = -1;           ///< which worker ran it
  double queue_seconds = 0.0;
  double train_seconds = 0.0;     ///< training time of the serving model
                                  ///< (also on cache hits)
  double generate_seconds = 0.0;
};

struct GenerationServiceOptions {
  int num_workers = 4;
  size_t queue_capacity = 64;
  /// Always 1: a worker decodes one request at a time. Kept, not
  /// settable, only so the end-to-end benchmark's run metadata still
  /// compiles; the benchmark change that drops that field
  /// (`service.batch_width.mean` with it) deletes this too.
  static constexpr int max_batch = 1;
  ModelRegistry::Options registry;
  /// Base pipeline configuration. `gen.seed` is the service's base seed:
  /// a request's sampling stream and a bucket's training seed are both
  /// pure functions of (gen.seed, request) resp. (gen.seed, bucket), so
  /// runs with fixed seeds are reproducible at any worker count.
  LearnedSqlGenOptions gen;
  /// Registry backing the service counters. Defaults to a private one
  /// (per-service isolation); pass &obs::MetricsRegistry::Global() to
  /// publish the `service.` namespace alongside the training metrics
  /// (lsgtrace does this). Must outlive the service when non-null.
  obs::MetricsRegistry* metrics_registry = nullptr;
};

/// Multi-tenant front end over LearnedSqlGen: a fixed worker pool drains a
/// bounded MPMC request queue; a worker pops one request, resolves its
/// bucket's immutable model snapshot through the shared ModelRegistry
/// (which trains a bucket at most once) and decodes the request against it
/// (DecodeItem). Submit blocks when the queue is full (backpressure);
/// TrySubmit fails fast instead. Shutdown() drains every accepted request
/// before joining.
class GenerationService {
 public:
  /// `db` must outlive the service. Builds the service's one
  /// DatabaseContext (statistics, vocabulary, estimator, cost model) here,
  /// so misconfigured options — `gen.trainer.net.extra_input_dims != 0`,
  /// a vocabulary that cannot be built — fail Create rather than every
  /// request. Workers start immediately.
  static StatusOr<std::unique_ptr<GenerationService>> Create(
      const Database* db, const GenerationServiceOptions& options);

  /// A service over an existing context (shared with whoever else holds
  /// it). `options.gen` must match the context's vocabulary.
  static StatusOr<std::unique_ptr<GenerationService>> Create(
      std::shared_ptr<const DatabaseContext> context,
      const GenerationServiceOptions& options);

  ~GenerationService();

  GenerationService(const GenerationService&) = delete;
  GenerationService& operator=(const GenerationService&) = delete;

  /// Enqueues a request, blocking while the queue is full. The future
  /// always becomes ready: with a generation result, a per-request error
  /// status, or FailedPrecondition if the service shut down first.
  std::future<GenerationResponse> Submit(GenerationRequest request);

  /// Fail-fast variant: returns ResourceExhausted immediately when the
  /// queue is full (retryable backpressure) and FailedPrecondition when
  /// the service is shut down (terminal).
  StatusOr<std::future<GenerationResponse>> TrySubmit(
      GenerationRequest request);

  /// Submit + wait (convenience for sequential callers and tests).
  GenerationResponse SubmitAndWait(GenerationRequest request);

  /// Stops accepting new requests, drains every queued request, joins all
  /// workers. Idempotent; also run by the destructor.
  void Shutdown();

  /// Live counters; callable while workers run.
  ServiceMetricsSnapshot Metrics() const;

  const GenerationServiceOptions& options() const { return options_; }

 private:
  struct Job {
    GenerationRequest request;
    std::promise<GenerationResponse> promise;
    Stopwatch queued;  ///< started at submit; read at pop = queue latency
  };

  GenerationService(std::shared_ptr<const DatabaseContext> context,
                    const GenerationServiceOptions& options);

  void WorkerLoop(int worker_index);
  /// Runs one job: records queue metrics, generates (Run), completes the
  /// promise.
  void Handle(int worker_index, Job* job);
  /// Resolves the request's model and decodes the request over its
  /// snapshot, filling `response`.
  void Run(const GenerationRequest& request, GenerationResponse* response);
  static std::future<GenerationResponse> RejectedFuture(uint64_t id,
                                                        Status status);

  GenerationServiceOptions options_;
  ServiceMetrics metrics_;
  ModelRegistry registry_;
  BoundedQueue<Job> queue_;
  /// Written once at startup (under the lock, before any concurrent
  /// caller exists) and joined by the first Shutdown; the lock also makes
  /// concurrent Shutdown calls idempotent instead of double-joining.
  std::vector<std::thread> workers_ LSG_GUARDED_BY(shutdown_mu_);
  Mutex shutdown_mu_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_SERVICE_GENERATION_SERVICE_H_
