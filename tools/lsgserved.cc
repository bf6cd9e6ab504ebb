// lsgserved — network serving daemon for the LearnedSQLGen generation
// service: a single-threaded epoll event loop speaking a
// line-delimited JSON protocol, with per-tenant token-bucket admission
// control in front of the shared worker pool. See README "Network
// serving" for the protocol spec.
//
// Modes:
//   serve (default)  bind and serve until SIGINT/SIGTERM (graceful drain)
//   --bench          in-process self-check: start the server, run the
//                    loopback load driver against it, verify accounting
//   --fuzz           in-process protocol fuzzer (malformed frames,
//                    oversized lines, slow-loris, mid-request disconnects)
//
// Examples:
//   lsgserved --dataset score --port 7433 --epochs 40
//   lsgserved --dataset tpch --model-dir /var/lib/lsg-models --cache 4
//   lsgserved --dataset score --epochs 2 --bench --ping-only
//       --bench-connections 64 --bench-requests 200   (one line)
//   lsgserved --dataset score --epochs 2 --fuzz --fuzz-rounds 64
//
// Exit code 0 on success; --bench and --fuzz exit 1 when an invariant
// fails (unanswered frame, unparseable response, accounting mismatch).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include <unistd.h>

#include "fuzz/test_databases.h"
#include "net/net_client.h"
#include "net/server.h"
#include "service/generation_service.h"

namespace {

lsg::net::NetServer* g_server = nullptr;

void DrainSignalHandler(int) {
  // BeginDrain is async-signal-safe: one atomic store + one write(2).
  if (g_server != nullptr) g_server->BeginDrain();
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
      "lsgserved — network front end for constraint-aware SQL generation\n\n"
      "dataset / service:\n"
      "  --dataset NAME        score|tpch|job|xuetang|edge (default score)\n"
      "  --scale F             dataset scale factor (default 1.0)\n"
      "  --workers W           service worker threads (default 4)\n"
      "  --queue Q             service queue capacity (default 64)\n"
      "  --cache C             resident model cap (default 8)\n"
      "  --model-dir DIR       spill evicted models here and warm-start\n"
      "                        from them (default: no spill)\n"
      "  --epochs E            training epochs per new model (default 150)\n"
      "  --seed S              base RNG seed (default 2024)\n"
      "network:\n"
      "  --host H              bind address (default 127.0.0.1)\n"
      "  --port P              bind port (default 7433; 0 = ephemeral)\n"
      "  --max-conns N         accepted connection cap (default 256)\n"
      "  --idle-timeout-ms T   close idle connections (default 30000)\n"
      "  --request-timeout-ms T  per-request deadline (default 0 = none)\n"
      "  --drain-timeout-ms T  max graceful-drain wait (default 10000)\n"
      "  --no-sql              omit generated SQL from responses\n"
      "admission (per tenant unless noted):\n"
      "  --tenant-rate R       token-bucket refill/s (default 500; 0 = off)\n"
      "  --tenant-burst B      bucket capacity (default 1000)\n"
      "  --tenant-inflight N   inflight cap per tenant (default 64)\n"
      "  --max-inflight N      global inflight cap (default 256)\n"
      "bench / fuzz:\n"
      "  --bench               run the in-process loopback load driver\n"
      "  --bench-connections N --bench-requests N --bench-pipeline N\n"
      "  --ping-only           bench pure protocol overhead, skip service\n"
      "  --tenants N           spread bench load over N tenants\n"
      "  --fuzz                run the in-process protocol fuzzer\n"
      "  --fuzz-rounds N --fuzz-clients N\n");
}

// Sums the structured-error response counters; together with ok, pings and
// orphaned these partition every received frame (oversized lines are
// rejected before the frame exists, so req.oversized sits outside).
uint64_t ErrorResponses(const std::map<std::string, uint64_t>& c) {
  uint64_t sum = 0;
  for (const char* name :
       {"net.req.bad_frame", "net.req.bad_request", "net.req.over_quota",
        "net.req.over_inflight", "net.req.queue_full", "net.req.draining",
        "net.req.timeout", "net.req.internal"}) {
    auto it = c.find(name);
    if (it != c.end()) sum += it->second;
  }
  return sum;
}

uint64_t CounterOr0(const std::map<std::string, uint64_t>& c,
                    const char* name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// The exact-accounting acceptance check: every frame the server counted as
// received was answered (ok, pong, structured error) or explicitly
// orphaned by a forced drain. Run after Join(), when counters are quiet.
bool CheckConservation(const lsg::obs::MetricsSnapshot& snap) {
  const auto& c = snap.counters;
  uint64_t received = CounterOr0(c, "net.req.received");
  uint64_t answered = CounterOr0(c, "net.req.ok") +
                      CounterOr0(c, "net.req.pings") + ErrorResponses(c) +
                      CounterOr0(c, "net.req.orphaned");
  if (received == answered) return true;
  std::fprintf(stderr,
               "ACCOUNTING MISMATCH: net.req.received=%llu but "
               "ok+pings+errors+orphaned=%llu\n",
               static_cast<unsigned long long>(received),
               static_cast<unsigned long long>(answered));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lsg;

  std::string dataset = "score", host = "127.0.0.1", model_dir;
  double scale = 1.0;
  int workers = 4, epochs = 150, port = 7433;
  size_t queue_capacity = 64, cache_capacity = 8;
  uint64_t seed = 2024;
  net::NetServerOptions net_opts;
  bool bench = false, fuzz = false, ping_only = false;
  int bench_connections = 8, bench_requests = 100, bench_pipeline = 4;
  int tenants = 1, fuzz_rounds = 64, fuzz_clients = 4;

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
    } else if (a == "--scale") {
      scale = std::atof(need_value(i++));
    } else if (a == "--workers") {
      workers = std::atoi(need_value(i++));
    } else if (a == "--queue") {
      queue_capacity = static_cast<size_t>(std::atoi(need_value(i++)));
    } else if (a == "--cache") {
      cache_capacity = static_cast<size_t>(std::atoi(need_value(i++)));
    } else if (a == "--model-dir") {
      model_dir = need_value(i++);
    } else if (a == "--epochs") {
      epochs = std::atoi(need_value(i++));
    } else if (a == "--seed") {
      seed = std::strtoull(need_value(i++), nullptr, 10);
    } else if (a == "--host") {
      host = need_value(i++);
    } else if (a == "--port") {
      port = std::atoi(need_value(i++));
    } else if (a == "--max-conns") {
      net_opts.max_connections = std::atoi(need_value(i++));
    } else if (a == "--idle-timeout-ms") {
      net_opts.idle_timeout_ms = std::atoi(need_value(i++));
    } else if (a == "--request-timeout-ms") {
      net_opts.request_timeout_ms = std::atoi(need_value(i++));
    } else if (a == "--drain-timeout-ms") {
      net_opts.drain_timeout_ms = std::atoi(need_value(i++));
    } else if (a == "--no-sql") {
      net_opts.include_sql = false;
    } else if (a == "--tenant-rate") {
      net_opts.admission.tenant_rate = std::atof(need_value(i++));
    } else if (a == "--tenant-burst") {
      net_opts.admission.tenant_burst = std::atof(need_value(i++));
    } else if (a == "--tenant-inflight") {
      net_opts.admission.tenant_max_inflight = std::atoi(need_value(i++));
    } else if (a == "--max-inflight") {
      net_opts.admission.max_inflight = std::atoi(need_value(i++));
    } else if (a == "--bench") {
      bench = true;
    } else if (a == "--bench-connections") {
      bench_connections = std::atoi(need_value(i++));
    } else if (a == "--bench-requests") {
      bench_requests = std::atoi(need_value(i++));
    } else if (a == "--bench-pipeline") {
      bench_pipeline = std::atoi(need_value(i++));
    } else if (a == "--ping-only") {
      ping_only = true;
    } else if (a == "--tenants") {
      tenants = std::atoi(need_value(i++));
    } else if (a == "--fuzz") {
      fuzz = true;
    } else if (a == "--fuzz-rounds") {
      fuzz_rounds = std::atoi(need_value(i++));
    } else if (a == "--fuzz-clients") {
      fuzz_clients = std::atoi(need_value(i++));
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      return 2;
    }
  }

  auto db = BuildNamedDatabase(dataset, scale);
  if (!db.ok()) {
    std::fprintf(stderr, "dataset: %s\n", db.status().ToString().c_str());
    return 2;
  }

  // One registry for both layers, so the final snapshot shows net.* and
  // service.* side by side.
  obs::MetricsRegistry registry;
  GenerationServiceOptions svc_opts;
  svc_opts.num_workers = workers;
  svc_opts.queue_capacity = queue_capacity;
  svc_opts.registry.capacity = cache_capacity;
  svc_opts.registry.spill_dir = model_dir;
  svc_opts.gen.train_epochs = epochs;
  svc_opts.seed = seed;
  svc_opts.metrics_registry = &registry;
  auto service = GenerationService::Create(&*db, svc_opts);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  net_opts.host = host;
  net_opts.port = (bench || fuzz) ? 0 : port;  // self-tests use ephemeral
  net_opts.metrics_registry = &registry;
  net::ServiceDispatcher dispatcher(service->get());
  auto server = net::NetServer::Create(&dispatcher, net_opts);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return 1;
  }
  g_server = server->get();
  InstallDrainHandlers();

  int rc = 0;
  if (bench || fuzz) {
    Status started = (*server)->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
      return 1;
    }
    if (bench) {
      net::LoadDriverOptions lo;
      lo.host = host;
      lo.port = (*server)->port();
      lo.connections = bench_connections;
      lo.requests_per_connection = bench_requests;
      lo.pipeline_depth = bench_pipeline;
      lo.ping_only = ping_only;
      lo.tenants = tenants;
      auto report = net::RunLoadDriver(lo);
      if (!report.ok()) {
        std::fprintf(stderr, "bench: %s\n",
                     report.status().ToString().c_str());
        rc = 1;
      } else {
        std::printf("%s\n", report->ToString().c_str());
        if (report->ok == 0) {
          std::fprintf(stderr, "bench: no request succeeded\n");
          rc = 1;
        }
      }
    }
    if (fuzz && rc == 0) {
      net::NetFuzzOptions fo;
      fo.host = host;
      fo.port = (*server)->port();
      fo.seed = seed;
      fo.rounds = fuzz_rounds;
      fo.clients = fuzz_clients;
      fo.max_frame_bytes = net_opts.max_frame_bytes;
      auto report = net::FuzzNetProtocol(fo);
      if (!report.ok()) {
        std::fprintf(stderr, "fuzz: %s\n",
                     report.status().ToString().c_str());
        rc = 1;
      } else {
        std::printf("%s\n", report->ToString().c_str());
      }
    }
    (*server)->BeginDrain();
    Status joined = (*server)->Join();
    if (!joined.ok()) {
      std::fprintf(stderr, "join: %s\n", joined.ToString().c_str());
      rc = 1;
    }
  } else {
    std::fprintf(stderr,
                 "lsgserved: %s (%zu tables, %zu rows), %d workers, "
                 "listening on %s:%d, pid %d\n",
                 dataset.c_str(), (*db).num_tables(), (*db).TotalRows(),
                 workers, host.c_str(), (*server)->port(),
                 static_cast<int>(getpid()));
    Status ran = (*server)->Run();
    if (!ran.ok()) {
      std::fprintf(stderr, "serve: %s\n", ran.ToString().c_str());
      rc = 1;
    }
  }
  g_server = nullptr;

  // Service after server: completion waiters are joined by Run/Join, so
  // nothing still depends on service futures.
  (*service)->Shutdown();

  obs::MetricsSnapshot snap = registry.Snapshot();
  std::printf("%s\n", snap.ToJson().c_str());
  if (!CheckConservation(snap)) rc = 1;
  return rc;
}
