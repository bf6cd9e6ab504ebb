// lsgserve — batch serving front end for the LearnedSQLGen generation
// service: a worker pool drains a file (or stdin) of constraint requests
// through a shared constraint-keyed model cache.
//
// Request format, one request per line ('#' starts a comment):
//   <metric> point <value> [n]
//   <metric> range <lo> <hi> [n]
// e.g.
//   card point 500 10
//   cost range 100 900 5
//
// Examples:
//   lsgserve --dataset tpch --workers 4 --requests batch.txt
//   echo "card range 50 100 5" | lsgserve --dataset job --epochs 120
//   lsgserve --dataset tpch --requests batch.txt --model-dir /tmp/lsg-models
//
// Per request one tab-separated line is printed to stdout (id, constraint,
// status, satisfied/attempts, hit/train, seconds), followed by the
// aggregate service metrics as one JSON object.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "datasets/job_like.h"
#include "datasets/tpch_like.h"
#include "datasets/xuetang_like.h"
#include "service/generation_service.h"

namespace {

// SIGINT/SIGTERM request a graceful drain: stop submitting new requests,
// finish (and report) everything already accepted. A second signal falls
// back to the default disposition, i.e. kills the process.
std::atomic<bool> g_drain{false};

void DrainSignalHandler(int signo) {
  // relaxed: level-semantic drain flag set from a signal handler; the
  // polling loop re-reads it and no payload rides on the store.
  g_drain.store(true, std::memory_order_relaxed);
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  sigaction(signo, &dfl, nullptr);
  // write(2) is async-signal-safe; fprintf is not.
  const char msg[] =
      "\nlsgserve: draining in-flight requests (signal again to kill)\n";
  ssize_t ignored = write(STDERR_FILENO, msg, sizeof(msg) - 1);
  (void)ignored;
}

void InstallDrainHandlers() {
  struct sigaction sa {};
  sa.sa_handler = DrainSignalHandler;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

void Usage() {
  std::printf(
      "lsgserve — concurrent constraint-aware SQL generation service\n\n"
      "required:\n"
      "  --dataset tpch|job|xuetang   benchmark database to serve over\n"
      "options:\n"
      "  --requests PATH  request file (default: read stdin)\n"
      "  --workers W      worker threads (default 4)\n"
      "  --max-batch B    in-flight requests a worker may decode together\n"
      "                   (default 8; 1 decodes one request at a time on\n"
      "                   the same path, no cross-request batching)\n"
      "  --queue Q        request queue capacity (default 64)\n"
      "  --cache C        resident model cap before LRU spill (default 8)\n"
      "  --model-dir DIR  spill/warm-start directory (default: no spill)\n"
      "  --n N            default satisfying queries per request (default 5)\n"
      "  --epochs E       training epochs per new model (default 150)\n"
      "  --scale F        dataset scale factor (default 1.0)\n"
      "  --seed S         base RNG seed (default 2024)\n"
      "  --fail-fast      reject instead of blocking when the queue is full\n"
      "\nrequest lines: \"card|cost point V [n]\" or "
      "\"card|cost range LO HI [n]\"\n");
}

struct ParsedRequest {
  lsg::GenerationRequest request;
  std::string text;  // original line, for the report
};

bool ParseRequestLine(const std::string& line, int default_n, uint64_t id,
                      ParsedRequest* out) {
  std::istringstream in(line);
  std::string metric_name, kind;
  if (!(in >> metric_name >> kind)) return false;
  lsg::ConstraintMetric metric;
  if (metric_name == "card") {
    metric = lsg::ConstraintMetric::kCardinality;
  } else if (metric_name == "cost") {
    metric = lsg::ConstraintMetric::kCost;
  } else {
    return false;
  }
  double a = 0, b = 0;
  int n = default_n;
  if (kind == "point") {
    if (!(in >> a)) return false;
    in >> n;
    out->request.constraint = lsg::Constraint::Point(metric, a);
  } else if (kind == "range") {
    if (!(in >> a >> b)) return false;
    in >> n;
    out->request.constraint = lsg::Constraint::Range(metric, a, b);
  } else {
    return false;
  }
  if (n <= 0) return false;
  out->request.n = n;
  out->request.id = id;
  out->text = line;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lsg;

  std::string dataset, requests_path, model_dir;
  int workers = 4, max_batch = 8, default_n = 5, epochs = 150;
  size_t queue_capacity = 64, cache_capacity = 8;
  double scale = 1.0;
  uint64_t seed = 2024;
  bool fail_fast = false;

  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      Usage();
      return 0;
    } else if (a == "--dataset") {
      dataset = need_value(i++);
    } else if (a == "--requests") {
      requests_path = need_value(i++);
    } else if (a == "--workers") {
      workers = std::atoi(need_value(i++));
    } else if (a == "--max-batch") {
      max_batch = std::atoi(need_value(i++));
    } else if (a == "--queue") {
      queue_capacity = static_cast<size_t>(std::atoi(need_value(i++)));
    } else if (a == "--cache") {
      cache_capacity = static_cast<size_t>(std::atoi(need_value(i++)));
    } else if (a == "--model-dir") {
      model_dir = need_value(i++);
    } else if (a == "--n") {
      default_n = std::atoi(need_value(i++));
    } else if (a == "--epochs") {
      epochs = std::atoi(need_value(i++));
    } else if (a == "--scale") {
      scale = std::atof(need_value(i++));
    } else if (a == "--seed") {
      seed = std::strtoull(need_value(i++), nullptr, 10);
    } else if (a == "--fail-fast") {
      fail_fast = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (dataset.empty()) {
    Usage();
    return 2;
  }

  DatasetScale ds;
  ds.factor = scale;
  Database db;
  if (dataset == "tpch") {
    db = BuildTpchLike(ds);
  } else if (dataset == "job") {
    db = BuildJobLike(ds);
  } else if (dataset == "xuetang") {
    db = BuildXuetangLike(ds);
  } else {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    return 2;
  }

  // Read all request lines up front so submission order is deterministic.
  std::ifstream file;
  std::istream* in = &std::cin;
  if (!requests_path.empty()) {
    file.open(requests_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", requests_path.c_str());
      return 2;
    }
    in = &file;
  }
  std::vector<ParsedRequest> batch;
  std::string line;
  while (std::getline(*in, line)) {
    std::string trimmed = line;
    size_t start = trimmed.find_first_not_of(" \t");
    if (start == std::string::npos || trimmed[start] == '#') continue;
    ParsedRequest parsed;
    if (!ParseRequestLine(trimmed, default_n, batch.size() + 1, &parsed)) {
      std::fprintf(stderr, "bad request line: %s\n", line.c_str());
      return 2;
    }
    batch.push_back(std::move(parsed));
  }
  if (batch.empty()) {
    std::fprintf(stderr, "no requests\n");
    return 2;
  }

  GenerationServiceOptions opts;
  opts.num_workers = workers;
  opts.max_batch = max_batch;
  opts.queue_capacity = queue_capacity;
  opts.registry.capacity = cache_capacity;
  opts.registry.spill_dir = model_dir;
  opts.gen.train_epochs = epochs;
  opts.gen.seed = seed;

  auto service = GenerationService::Create(&db, opts);
  if (!service.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serving %s (%zu tables, %zu rows) with %d workers, "
               "max-batch %d, queue %zu, cache %zu, %zu requests\n",
               dataset.c_str(), db.num_tables(), db.TotalRows(), workers,
               max_batch, queue_capacity, cache_capacity, batch.size());

  InstallDrainHandlers();
  Stopwatch wall;
  std::vector<std::future<GenerationResponse>> futures;
  futures.reserve(batch.size());
  for (ParsedRequest& p : batch) {
    // relaxed: pairs with the level-semantic store in the signal handler.
    if (g_drain.load(std::memory_order_relaxed)) break;
    if (fail_fast) {
      auto f = (*service)->TrySubmit(p.request);
      if (!f.ok()) {
        futures.push_back(std::async(std::launch::deferred,
                                     [st = f.status(), id = p.request.id] {
                                       GenerationResponse r;
                                       r.id = id;
                                       r.status = st;
                                       return r;
                                     }));
        continue;
      }
      futures.push_back(std::move(*f));
    } else {
      futures.push_back((*service)->Submit(p.request));
    }
  }

  std::printf("id\tconstraint\tstatus\tsatisfied/attempts\tsource\tseconds\n");
  int failures = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    GenerationResponse r = futures[i].get();
    const char* source = r.cache_hit ? "cache-hit"
                         : r.warm_start ? "warm-start"
                                        : "trained";
    if (!r.status.ok()) {
      ++failures;
      std::printf("%llu\t%s\t%s\t-\t-\t-\n",
                  static_cast<unsigned long long>(r.id),
                  batch[i].request.constraint.ToString().c_str(),
                  r.status.ToString().c_str());
      continue;
    }
    std::printf("%llu\t%s\tOK\t%d/%d\t%s\t%.2f\n",
                static_cast<unsigned long long>(r.id),
                batch[i].request.constraint.ToString().c_str(),
                r.report.satisfied, r.report.attempts, source,
                r.queue_seconds + r.train_seconds + r.generate_seconds);
    for (const GeneratedQuery& q : r.report.queries) {
      std::printf("\t%.4g\t%s\n", q.metric, q.sql.c_str());
    }
  }
  // Requests never submitted because a drain signal arrived mid-batch.
  size_t skipped = batch.size() - futures.size();
  for (size_t i = futures.size(); i < batch.size(); ++i) {
    std::printf("%llu\t%s\tSKIPPED (drain)\t-\t-\t-\n",
                static_cast<unsigned long long>(batch[i].request.id),
                batch[i].request.constraint.ToString().c_str());
  }
  (*service)->Shutdown();
  double wall_seconds = wall.ElapsedSeconds();

  ServiceMetricsSnapshot m = (*service)->Metrics();
  std::printf("%s\n", m.ToJson().c_str());
  std::fprintf(stderr,
               "%zu/%zu requests in %.2fs wall (%.2f req/s), cache hit rate "
               "%.0f%%, %d failed, %zu skipped by drain\n",
               futures.size(), batch.size(), wall_seconds,
               static_cast<double>(futures.size()) / wall_seconds,
               100.0 * m.cache_hit_rate(), failures, skipped);
  return failures == 0 ? 0 : 1;
}
