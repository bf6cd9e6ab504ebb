#include "fuzz/service_fuzz.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/sync.h"
#include "common/string_util.h"
#include "fuzz/test_databases.h"
#include "service/generation_service.h"

namespace lsg {

namespace {

/// Upper bound on a round's random worker count.
constexpr int kMaxWorkers = 4;

Constraint RandomConstraint(Rng* rng) {
  ConstraintMetric metric = rng->Bernoulli(0.5)
                                ? ConstraintMetric::kCardinality
                                : ConstraintMetric::kCost;
  double a = 1.0 + static_cast<double>(rng->Uniform(200));
  if (rng->Bernoulli(0.5)) {
    return Constraint::Point(metric, a);
  }
  return Constraint::Range(metric, a, a * (2 + rng->Uniform(6)));
}

/// A round's constraints: one or two buckets more than the cache holds.
/// The requests walk them in a cycle, two requests per bucket, so a
/// bucket is asked for again at once (a hit, or a dedup wait on its
/// training) and again after it was evicted (a spill, then a warm start
/// in spill rounds).
std::vector<Constraint> RoundConstraints(size_t cache_capacity, Rng* rng) {
  std::vector<Constraint> pool(cache_capacity + 1 + rng->Uniform(2));
  for (Constraint& c : pool) c = RandomConstraint(rng);
  return pool;
}

/// Removes a directory tree (if `dir` is not empty) when it goes out of
/// scope, however the scope ends.
class RemovedOnExit {
 public:
  explicit RemovedOnExit(std::string dir) : dir_(std::move(dir)) {}
  ~RemovedOnExit() {
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }
  RemovedOnExit(const RemovedOnExit&) = delete;
  RemovedOnExit& operator=(const RemovedOnExit&) = delete;

 private:
  std::string dir_;
};

}  // namespace

Status FuzzGenerationService(const ServiceFuzzOptions& options) {
  LSG_ASSIGN_OR_RETURN(Database db,
                       BuildNamedDatabase(options.dataset, options.scale));
  // The rounds' services differ only in serving and training knobs, so
  // they share one context.
  LSG_ASSIGN_OR_RETURN(
      std::shared_ptr<const DatabaseContext> context,
      LearnedSqlGen::CreateContext(&db, LearnedSqlGenOptions()));

  for (int round = 0; round < options.rounds; ++round) {
    Rng rng(SplitMix64(options.seed + static_cast<uint64_t>(round)));
    GenerationServiceOptions opts;
    opts.num_workers = 1 + static_cast<int>(rng.Uniform(kMaxWorkers));
    opts.queue_capacity = 2 + rng.Uniform(14);
    opts.registry.capacity = 1 + rng.Uniform(4);
    opts.gen.train_epochs = options.train_epochs;
    opts.gen.trainer.batch_size = 4;
    opts.gen.attempts_factor = 4;
    opts.seed = SplitMix64(options.seed ^ (round + 1));
    const bool midrun_shutdown = (round % 2) == 1;
    const bool spill = (round % 2) == (round / 2) % 2;
    if (spill) {
      opts.registry.spill_dir =
          (std::filesystem::temp_directory_path() /
           StrFormat("lsgfuzz-spill-%d-%llu-%d", static_cast<int>(::getpid()),
                     static_cast<unsigned long long>(options.seed), round))
              .string();
    }
    const RemovedOnExit spill_dir(opts.registry.spill_dir);
    const std::vector<Constraint> constraints =
        RoundConstraints(opts.registry.capacity, &rng);
    // A mid-run shutdown waits for this many accepted requests, so the
    // round always drives the registry before the shutdown races the rest.
    const int64_t shutdown_after =
        midrun_shutdown
            ? rng.UniformInt(1, std::max(1, options.requests_per_round - 1))
            : 0;

    auto service = GenerationService::Create(context, opts);
    if (!service.ok()) return service.status();
    if (options.verbose) {
      LSG_LOG(Info) << "service fuzz round " << round << ": workers="
                    << opts.num_workers << " queue=" << opts.queue_capacity
                    << " cache=" << opts.registry.capacity
                    << " buckets=" << constraints.size()
                    << " spill=" << spill
                    << " midrun_shutdown=" << midrun_shutdown;
    }

    // Flood the service from a racing producer thread; requests mix
    // blocking Submit with fail-fast TrySubmit, batch and satisfy modes.
    std::vector<std::future<GenerationResponse>> futures;
    Mutex futures_mu;
    // Fulfilled once `shutdown_after` requests were accepted, or when the
    // producer is done (backpressure may reject too many to get there).
    std::promise<void> accepted_enough;
    std::thread producer([&] {
      Rng prng(SplitMix64(options.seed + 1000 + round));
      int64_t accepted = 0;
      auto accept = [&](std::future<GenerationResponse> f) {
        MutexLock lock(&futures_mu);
        futures.push_back(std::move(f));
        if (++accepted == shutdown_after) accepted_enough.set_value();
      };
      for (int i = 0; i < options.requests_per_round; ++i) {
        GenerationRequest req;
        req.constraint = constraints[(i / 2) % constraints.size()];
        req.n = 1 + static_cast<int>(prng.Uniform(2));
        req.batch = prng.Bernoulli(0.75);
        req.id = static_cast<uint64_t>(i + 1);
        if (prng.Bernoulli(0.25)) {
          auto f = (*service)->TrySubmit(req);
          // Backpressure / post-shutdown rejections are orderly outcomes.
          if (f.ok()) accept(std::move(*f));
        } else {
          accept((*service)->Submit(req));
        }
      }
      if (accepted < shutdown_after) accepted_enough.set_value();
    });

    if (midrun_shutdown) {
      accepted_enough.get_future().wait();
      (*service)->Shutdown();
    }
    producer.join();
    (*service)->Shutdown();
    (*service)->Shutdown();  // must be idempotent

    // Every accepted future must become ready with an orderly status.
    for (auto& f : futures) {
      if (f.wait_for(std::chrono::seconds(60)) !=
          std::future_status::ready) {
        return Status::Internal(
            StrFormat("round %d: a submitted future never became ready",
                      round));
      }
      GenerationResponse r = f.get();
      if (!r.status.ok() &&
          r.status.code() != StatusCode::kFailedPrecondition) {
        return Status::Internal(
            StrFormat("round %d: request %llu finished with unexpected "
                      "status %s",
                      round, static_cast<unsigned long long>(r.id),
                      r.status.ToString().c_str()));
      }
    }

    ServiceMetricsSnapshot m = (*service)->Metrics();
    if (m.requests_completed + m.requests_failed + m.requests_rejected !=
        m.requests_submitted) {
      return Status::Internal(
          StrFormat("round %d: metrics leak: submitted=%llu completed=%llu "
                    "failed=%llu rejected=%llu",
                    round,
                    static_cast<unsigned long long>(m.requests_submitted),
                    static_cast<unsigned long long>(m.requests_completed),
                    static_cast<unsigned long long>(m.requests_failed),
                    static_cast<unsigned long long>(m.requests_rejected)));
    }
    if (m.queue_depth_high_water > opts.queue_capacity) {
      return Status::Internal(
          StrFormat("round %d: queue high water %llu exceeds capacity %zu",
                    round,
                    static_cast<unsigned long long>(m.queue_depth_high_water),
                    opts.queue_capacity));
    }
    auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
    if (options.verbose) {
      LSG_LOG(Info) << "service fuzz round " << round << " registry: hits="
                    << m.cache_hits << " misses=" << m.cache_misses
                    << " trainings=" << m.trainings
                    << " warm_starts=" << m.disk_warm_starts
                    << " evictions=" << m.evictions
                    << " dedup_waits=" << m.dedup_waits;
    }
    if (m.cache_hits + m.cache_misses !=
        m.requests_completed + m.requests_failed) {
      return Status::Internal(StrFormat(
          "round %d: hits=%llu + misses=%llu != completed=%llu + "
          "failed=%llu",
          round, u(m.cache_hits), u(m.cache_misses), u(m.requests_completed),
          u(m.requests_failed)));
    }
    if (m.trainings + m.disk_warm_starts != m.cache_misses) {
      return Status::Internal(StrFormat(
          "round %d: trainings=%llu + warm_starts=%llu != misses=%llu",
          round, u(m.trainings), u(m.disk_warm_starts), u(m.cache_misses)));
    }
    if (m.evictions > m.cache_misses) {
      return Status::Internal(
          StrFormat("round %d: evictions=%llu exceed misses=%llu", round,
                    u(m.evictions), u(m.cache_misses)));
    }
    if (!spill && m.disk_warm_starts != 0) {
      return Status::Internal(
          StrFormat("round %d: %llu warm starts without a spill directory",
                    round, u(m.disk_warm_starts)));
    }
  }
  return Status::Ok();
}

}  // namespace lsg
