#include "service/generation_service.h"

#include <bit>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "core/decode.h"
#include "obs/span_tracer.h"

namespace lsg {
namespace {

// A request's private sampling stream: a SplitMix64 chain over the base
// seed and every request field. The stream is a pure function of
// (seed, request), so a request's output cannot depend on worker
// placement or queue order.
uint64_t RequestSeed(uint64_t base, const GenerationRequest& request) {
  const Constraint& c = request.constraint;
  uint64_t h = SplitMix64(base);
  h = SplitMix64(h ^ static_cast<uint64_t>(c.metric));
  h = SplitMix64(h ^ static_cast<uint64_t>(c.kind));
  h = SplitMix64(h ^ std::bit_cast<uint64_t>(c.point));
  h = SplitMix64(h ^ std::bit_cast<uint64_t>(c.lo));
  h = SplitMix64(h ^ std::bit_cast<uint64_t>(c.hi));
  h = SplitMix64(h ^ std::bit_cast<uint64_t>(c.point_tolerance));
  h = SplitMix64(h ^ static_cast<uint64_t>(request.n));
  h = SplitMix64(h ^ (request.batch ? 2u : 1u));
  return SplitMix64(h ^ request.id);
}

// A bucket's training seed: a pure function of (seed, bucket), so the
// model a bucket trains is the same no matter which worker's request got
// there first. (The old scheme drew from the claiming worker's stream,
// which made cached models — and everything generated from them — depend
// on request interleaving across workers.)
uint64_t BucketTrainSeed(uint64_t base, const ConstraintKey& key) {
  return SplitMix64(SplitMix64(base) ^
                    static_cast<uint64_t>(ConstraintKeyHash{}(key)));
}

}  // namespace

GenerationService::GenerationService(
    std::shared_ptr<const DatabaseContext> context,
    const GenerationServiceOptions& options)
    : options_(options),
      metrics_(options.metrics_registry),
      registry_(std::move(context), options.gen, options.registry,
                &metrics_),
      queue_(options.queue_capacity) {}

StatusOr<std::unique_ptr<GenerationService>> GenerationService::Create(
    const Database* db, const GenerationServiceOptions& options) {
  if (db == nullptr || db->num_tables() == 0) {
    return Status::InvalidArgument("service needs a non-empty database");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  LSG_ASSIGN_OR_RETURN(
      std::shared_ptr<const DatabaseContext> context,
      LearnedSqlGen::CreateContext(db, options.gen));
  return Create(std::move(context), options);
}

StatusOr<std::unique_ptr<GenerationService>> GenerationService::Create(
    std::shared_ptr<const DatabaseContext> context,
    const GenerationServiceOptions& options) {
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  // Options no pipeline over `context` could serve fail here, not in
  // every request (building a pipeline over a context is O(1)).
  LSG_RETURN_IF_ERROR(LearnedSqlGen::Create(context, options.gen).status());
  std::unique_ptr<GenerationService> service(
      new GenerationService(std::move(context), options));
  MutexLock lock(&service->shutdown_mu_);
  service->workers_.reserve(options.num_workers);
  for (int w = 0; w < options.num_workers; ++w) {
    service->workers_.emplace_back(
        [svc = service.get(), w] { svc->WorkerLoop(w); });
  }
  return service;
}

GenerationService::~GenerationService() { Shutdown(); }

std::future<GenerationResponse> GenerationService::RejectedFuture(
    uint64_t id, Status status) {
  std::promise<GenerationResponse> promise;
  GenerationResponse response;
  response.id = id;
  response.status = std::move(status);
  promise.set_value(std::move(response));
  return promise.get_future();
}

std::future<GenerationResponse> GenerationService::Submit(
    GenerationRequest request) {
  metrics_.requests_submitted.Inc();
  Job job;
  job.request = std::move(request);
  uint64_t id = job.request.id;
  std::future<GenerationResponse> future = job.promise.get_future();
  if (!queue_.Push(std::move(job))) {
    metrics_.requests_rejected.Inc();
    metrics_.requests_rejected_shutdown.Inc();
    return RejectedFuture(
        id, Status::FailedPrecondition("service is shut down"));
  }
  return future;
}

StatusOr<std::future<GenerationResponse>> GenerationService::TrySubmit(
    GenerationRequest request) {
  metrics_.requests_submitted.Inc();
  Job job;
  job.request = std::move(request);
  std::future<GenerationResponse> future = job.promise.get_future();
  if (!queue_.TryPush(std::move(job))) {
    metrics_.requests_rejected.Inc();
    // Shut-down (terminal, FailedPrecondition) and backpressure (retryable,
    // ResourceExhausted) are distinct codes so callers — the network front
    // end in particular — can map them to different protocol errors.
    if (queue_.closed()) {
      metrics_.requests_rejected_shutdown.Inc();
      return Status::FailedPrecondition("service is shut down");
    }
    metrics_.requests_rejected_queue_full.Inc();
    return Status::ResourceExhausted("request queue is full");
  }
  return future;
}

GenerationResponse GenerationService::SubmitAndWait(
    GenerationRequest request) {
  return Submit(std::move(request)).get();
}

void GenerationService::Shutdown() {
  MutexLock lock(&shutdown_mu_);
  queue_.Close();  // producers rejected; accepted jobs drain
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

ServiceMetricsSnapshot GenerationService::Metrics() const {
  ServiceMetricsSnapshot snapshot = metrics_.Snapshot();
  snapshot.queue_depth_high_water = queue_.high_water_mark();
  return snapshot;
}

void GenerationService::WorkerLoop(int worker_index) {
  for (;;) {
    auto job = queue_.Pop();
    if (!job.has_value()) return;  // closed and fully drained
    Handle(worker_index, &*job);
  }
}

void GenerationService::Handle(int worker_index, Job* job) {
  GenerationResponse response;
  response.id = job->request.id;
  response.worker = worker_index;
  response.queue_seconds = job->queued.ElapsedSeconds();
  metrics_.AddQueueSeconds(response.queue_seconds);
  metrics_.queue_wait_ns.Record(job->queued.ElapsedNanos());
  {
    LSG_OBS_SPAN("service.handle");
    obs::ScopedHistogramTimer handle_timer(&metrics_.handle_ns);
    Stopwatch busy;
    Run(job->request, &response);
    metrics_.AddBusySeconds(busy.ElapsedSeconds());
  }
  if (response.status.ok()) {
    metrics_.requests_completed.Inc();
  } else {
    metrics_.requests_failed.Inc();
  }
  job->promise.set_value(std::move(response));
}

void GenerationService::Run(const GenerationRequest& request,
                            GenerationResponse* response) {
  if (request.n <= 0) {
    response->status = Status::InvalidArgument("request.n must be positive");
    return;
  }
  auto acquired = registry_.Acquire(
      request.constraint,
      BucketTrainSeed(options_.seed, BucketOf(request.constraint)));
  if (!acquired.ok()) {
    response->status = acquired.status();
    return;
  }
  response->cache_hit = acquired->cache_hit;
  response->warm_start = acquired->warm_start;
  // The snapshot is immutable and owns the model, so an eviction cannot
  // pull it away mid-decode.
  const std::shared_ptr<const ServingSnapshot> snapshot =
      std::move(acquired->snapshot);
  response->train_seconds = snapshot->train_seconds;
  Rng rng(RequestSeed(options_.seed, request));
  auto decoded =
      Decode(*snapshot, request.constraint, request.n, request.batch, &rng);
  if (!decoded.ok()) {
    response->status = decoded.status();
    return;
  }
  GenerationReport& report = *decoded;
  response->generate_seconds = report.generate_seconds;
  metrics_.AddGenerateSeconds(report.generate_seconds);
  metrics_.attempts.Add(static_cast<uint64_t>(report.attempts));
  metrics_.queries_generated.Add(report.queries.size());
  metrics_.queries_satisfied.Add(static_cast<uint64_t>(report.satisfied));
  response->report = std::move(report);
}

}  // namespace lsg
