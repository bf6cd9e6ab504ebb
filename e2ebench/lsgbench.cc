// lsgbench — end-to-end benchmark of the serving stack.
//
// Starts the same stack `lsgserved --bench` runs (BuildNamedDatabase ->
// GenerationService -> net::ServiceDispatcher -> net::NetServer on an
// ephemeral loopback port) in this process, drives it over TCP with
// net::BlockingClient connections, checks every response, and prints one
// JSON result line on stdout. Human-readable progress goes to stderr.
//
//   lsgbench --workload cold_train --seed 1 --seconds 10 --trace 0 --out DIR
//   lsgbench --workload warm_decode --seed 1 --setup-only --out DIR
//
// --trace 1 turns on the library's observability layer (spans, latency
// histograms) and adds the per-layer breakdown to the result; the untraced
// run is the one whose end-to-end numbers count. e2ebench/README.md has the
// metric glossary, the workloads and the accounting caveats.
//
// Exit codes: 0 the run completed (the result says whether it was correct),
// 2 usage or set-up error, 3 refused (debug build).

#include <malloc.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/sync.h"
#include "core/workload.h"
#include "fuzz/test_databases.h"
#include "net/net_client.h"
#include "net/server.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"
#include "service/constraint_key.h"
#include "service/generation_service.h"
#include "sql/parser.h"

#ifndef LSG_BENCH_BUILD_TYPE
#define LSG_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef LSG_BENCH_CXX_ID
#define LSG_BENCH_CXX_ID "unknown"
#endif

namespace {

using lsg::Constraint;
using lsg::ConstraintKind;
using lsg::ConstraintMetric;
using lsg::FormatDouble;
using lsg::StrFormat;
using lsg::obs::JsonValue;

// Taken during static initialization, before main: set-up time starts here.
const uint64_t g_process_start_ns = lsg::Stopwatch::NowNanos();

uint64_t Now() { return lsg::Stopwatch::NowNanos(); }
double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ------------------------------------------------------------ workloads

/// Every GenerationServiceOptions field keeps its library default except
/// the ones named here (plus the metrics registry, which is plumbing).
struct WorkloadSpec {
  const char* name;
  const char* dataset;
  double scale;               ///< dataset row scale
  bool open_loop;             ///< Poisson arrivals vs. waiting clients
  int connections;            ///< client connections (= load threads)
  double rate;                ///< open loop: arrivals per second; closed
                              ///< loop: requests per second the list is
                              ///< sized for (whole passes over the grid)
  int n;                      ///< queries per request (batch mode)
  int buckets;                ///< distinct buckets drawn from; 0 = fresh each
  double zipf_s;              ///< popularity skew over `buckets` (0 = uniform)
  int pretrain;               ///< most popular buckets trained in set-up
  bool spill;                 ///< registry spill directory
  size_t registry_capacity;   ///< 0 = library default
  int epochs;                 ///< training epochs per bucket
  double true_feedback_tail;  ///< GeneratorOptions::true_feedback_tail
  double slo_ms;              ///< open loop: fixed latency limit (slo_frac)
};

// Named by every workload: the host has 4 CPUs, so 2 service workers leave
// room for the event loop, its completion waiters and the load threads.
constexpr int kWorkers = 2;

const WorkloadSpec kWorkloads[] = {
    // name, dataset, scale, open, conns, rate, n, buckets, zipf_s,
    // pretrain, spill, capacity, epochs, tail, slo_ms
    {"cold_train", "tpch", 1.0, false, 2, 3.0, 128, 0, 0.0, 0, false, 0, 20,
     0.0, 0.0},
    {"warm_decode", "tpch", 1.0, true, 4, 25.0, 64, 2, 0.0, 2, false, 0, 20,
     0.0, 250.0},
    {"zipf_mix", "job", 1.0, true, 4, 16.0, 8, 8, 1.1, 7, true, 6, 10, 0.0,
     3000.0},
    {"exec_feedback", "tpch", 4.0, false, 2, 2.4, 128, 0, 0.0, 0, false, 0, 10,
     0.25, 0.0},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ------------------------------------------------------------ constraints

struct Target {
  Constraint constraint;
  std::string json;  ///< wire form of `constraint`, exact doubles
};

std::string ConstraintJson(const Constraint& c) {
  const char* metric =
      c.metric == ConstraintMetric::kCardinality ? "card" : "cost";
  if (c.kind == ConstraintKind::kPoint) {
    return StrFormat("{\"metric\": \"%s\", \"kind\": \"point\", \"value\": %s}",
                     metric, FormatDouble(c.point).c_str());
  }
  return StrFormat(
      "{\"metric\": \"%s\", \"kind\": \"range\", \"lo\": %s, \"hi\": %s}",
      metric, FormatDouble(c.lo).c_str(), FormatDouble(c.hi).c_str());
}

Target MakeTarget(const Constraint& c) { return Target{c, ConstraintJson(c)}; }

/// The readiness probe's bucket, kept out of every workload list.
Constraint ReadinessConstraint() {
  return Constraint::Range(ConstraintMetric::kCardinality, 1, 3);
}

/// Moves a grid constraint by a seeded factor in [e^-0.35, e^0.35] (about
/// two quarter-octave registry buckets either way) so that draws land in
/// different buckets while keeping the grid's metric, kind and magnitude. Values are whole numbers (cardinalities and
/// costs are reported at that resolution anyway).
Constraint Jitter(const Constraint& base, lsg::Rng* rng) {
  const double f = std::exp(rng->UniformDouble(-0.35, 0.35));
  if (base.kind == ConstraintKind::kPoint) {
    return Constraint::Point(base.metric,
                             std::max(5.0, std::round(base.point * f)));
  }
  double lo = std::max(1.0, std::round(base.lo * f));
  double hi = std::max(lo + 1.0, std::round(base.hi * f));
  return Constraint::Range(base.metric, lo, hi);
}

/// Probes the reachable card/cost domains exactly like the paper-figure
/// benches (bench_common.h MakeContext) and lays the paper's point and range
/// grids over them: 4 points + 4 widening ranges per metric.
std::vector<Constraint> PaperGrid(const lsg::Database& db,
                                  const lsg::LearnedSqlGenOptions& opts) {
  auto gen = lsg::LearnedSqlGen::Create(&db, opts);
  LSG_CHECK(gen.ok()) << gen.status().ToString();
  lsg::EnvironmentOptions eo;
  eo.profile = opts.profile;
  lsg::Rng rng(7);
  lsg::MetricDomain domains[2];
  for (int m = 0; m < 2; ++m) {
    const ConstraintMetric metric =
        m == 0 ? ConstraintMetric::kCardinality : ConstraintMetric::kCost;
    lsg::SqlGenEnvironment probe(&db, &(*gen)->vocab(), &(*gen)->estimator(),
                                 &(*gen)->cost_model(),
                                 Constraint::Point(metric, 1), eo);
    domains[m] = lsg::ProbeMetricDomain(&probe, 400, &rng, 0.2, 0.95);
  }
  std::vector<Constraint> grid;
  for (int m = 0; m < 2; ++m) {
    const ConstraintMetric metric =
        m == 0 ? ConstraintMetric::kCardinality : ConstraintMetric::kCost;
    for (const Constraint& c : lsg::bench::PaperPointGrid(metric, domains[m])) {
      grid.push_back(c);
    }
    for (const Constraint& c : lsg::bench::PaperRangeGrid(metric, domains[m])) {
      grid.push_back(c);
    }
  }
  return grid;
}

/// Cold request list: `rounds` passes over the grid. Pass r moves every
/// grid constraint by a fixed jitter into a bucket not used before (nor the
/// readiness bucket); the seed orders each pass. Every seed therefore
/// trains the same buckets (a bucket's training seed is a function of the
/// bucket), and the seed moves the request order and sampling streams.
std::vector<Target> ColdTargets(const std::vector<Constraint>& grid,
                                int rounds, lsg::Rng* order_rng) {
  lsg::Rng jitter_rng(0x636f6c64);
  std::set<std::string> used = {
      lsg::BucketOf(ReadinessConstraint()).ToString()};
  std::vector<Target> out;
  for (int r = 0; r < rounds; ++r) {
    std::vector<Target> pass;
    for (const Constraint& base : grid) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        Constraint c = Jitter(base, &jitter_rng);
        if (used.insert(lsg::BucketOf(c).ToString()).second) {
          pass.push_back(MakeTarget(c));
          break;
        }
      }
    }
    for (size_t i = pass.size(); i > 1; --i) {
      std::swap(pass[i - 1], pass[order_rng->Uniform(i)]);
    }
    for (Target& t : pass) out.push_back(std::move(t));
  }
  return out;
}

/// Warm bucket set: `count` unjittered grid constraints taken in turn from
/// the four (metric, kind) families, so every seed serves the same models
/// and only the request stream varies with the seed.
std::vector<Target> GridTargets(const std::vector<Constraint>& grid,
                                int count) {
  // grid = 4 card points, 4 card ranges, 4 cost points, 4 cost ranges.
  // Ranges come first: the most popular buckets are the cheap ones, so a
  // run's latency and attempt counts rest on many requests, not on a few
  // rare hard points.
  std::vector<Target> out;
  for (size_t k = 0; k < 4; ++k) {
    for (size_t family : {1, 3, 0, 2}) {
      if (static_cast<int>(out.size()) == count) return out;
      out.push_back(MakeTarget(grid[family * 4 + (k + 1) % 4]));
    }
  }
  return out;
}

/// One generation request of the measured phase.
struct Planned {
  uint64_t id = 0;
  size_t target = 0;       ///< index into the workload's target list
  uint64_t due_ns = 0;     ///< open loop: send time relative to start
};

struct Plan {
  std::vector<Target> targets;
  std::vector<size_t> pretrain;  ///< targets trained during set-up
  std::vector<Planned> requests;
};

constexpr uint64_t kReadinessId = 1;
constexpr uint64_t kPretrainIdBase = 100;
constexpr uint64_t kMeasuredIdBase = 1000;

Plan MakePlan(const WorkloadSpec& spec, const std::vector<Constraint>& grid,
              uint64_t seed, double seconds) {
  lsg::Rng rng(lsg::SplitMix64(seed ^ 0x6c736762656e6368ull));
  Plan plan;
  if (spec.buckets == 0) {
    // Cold: every request names a bucket not seen before. The list is a
    // fixed amount of work, whole passes sized from `rate` to take about
    // `seconds` on the 4-CPU reference host: a run always trains the same
    // buckets, so accuracy and latency do not depend on where a deadline
    // cuts. At least 3 passes, so that the median rests on 48 requests
    // rather than on how a few of them happened to overlap.
    const int passes = std::max(
        3, static_cast<int>(std::lround(spec.rate * seconds / grid.size())));
    plan.targets = ColdTargets(grid, passes, &rng);
    for (size_t i = 0; i < plan.targets.size(); ++i) {
      plan.requests.push_back(Planned{kMeasuredIdBase + i, i, 0});
    }
    return plan;
  }
  plan.targets = GridTargets(grid, spec.buckets);
  LSG_CHECK(static_cast<int>(plan.targets.size()) == spec.buckets);
  // targets[0] is the most popular bucket: Zipf ranks map onto list order.
  for (int i = 0; i < spec.pretrain; ++i) plan.pretrain.push_back(i);
  // rate x seconds arrivals. Popularity is stratified: each bucket gets its
  // expected share of the requests (largest remainder), and the seed deals
  // them out in random order at Poisson arrival times (uniform times given
  // the count). A run's bucket mix is then the same for every seed.
  const size_t total = static_cast<size_t>(std::lround(spec.rate * seconds));
  std::vector<double> weight(plan.targets.size());
  double weight_sum = 0;
  for (size_t k = 0; k < weight.size(); ++k) {
    weight[k] = std::pow(static_cast<double>(k + 1), -spec.zipf_s);
    weight_sum += weight[k];
  }
  std::vector<size_t> count(weight.size());
  std::vector<std::pair<double, size_t>> remainder;
  size_t dealt = 0;
  for (size_t k = 0; k < weight.size(); ++k) {
    const double share = static_cast<double>(total) * weight[k] / weight_sum;
    count[k] = static_cast<size_t>(share);
    dealt += count[k];
    remainder.emplace_back(count[k] - share, k);  // most negative first
  }
  std::sort(remainder.begin(), remainder.end());
  for (size_t i = 0; dealt < total; ++i, ++dealt) ++count[remainder[i].second];
  std::vector<size_t> deck;
  for (size_t k = 0; k < count.size(); ++k) deck.insert(deck.end(), count[k], k);
  for (size_t i = deck.size(); i > 1; --i) {
    std::swap(deck[i - 1], deck[rng.Uniform(i)]);
  }
  std::vector<double> due(total);
  for (double& t : due) t = rng.UniformDouble() * seconds;
  std::sort(due.begin(), due.end());
  for (size_t k = 0; k < total; ++k) {
    plan.requests.push_back(Planned{kMeasuredIdBase + k, deck[k],
                                    static_cast<uint64_t>(due[k] * 1e9)});
  }
  return plan;
}

// ------------------------------------------------------------ server side

/// What the benchmark's dispatcher saw of one request: the service span
/// (Dispatch until the response is ready) and the response's own timers.
struct ServerSide {
  uint64_t dispatch_ns = 0;
  uint64_t ready_ns = 0;
  bool ok = false;
  bool cache_hit = false;
  bool warm_start = false;
  double queue_s = 0;
  double train_s = 0;
  double generate_s = 0;
};

/// Wraps ServiceDispatcher to stamp the service span of every request. The
/// returned future is deferred: the server's completion waiter runs the
/// stamp when it collects the response, so no thread is added.
class TimingDispatcher : public lsg::net::RequestDispatcher {
 public:
  explicit TimingDispatcher(lsg::net::RequestDispatcher* inner)
      : inner_(inner) {}

  lsg::net::DispatchOutcome Dispatch(lsg::GenerationRequest request) override {
    const uint64_t start = Now();
    const uint64_t id = request.id;
    lsg::net::DispatchOutcome out = inner_->Dispatch(std::move(request));
    if (out.error != lsg::net::NetError::kNone) return out;
    out.future = std::async(
        std::launch::deferred,
        [this, id, start, inner = std::move(out.future)]() mutable {
          lsg::GenerationResponse r = inner.get();
          Record(id, start, r);
          return r;
        });
    return out;
  }

  std::map<uint64_t, ServerSide> Seen() {
    lsg::MutexLock lock(&mu_);
    return seen_;
  }

 private:
  void Record(uint64_t id, uint64_t start, const lsg::GenerationResponse& r) {
    ServerSide s;
    s.dispatch_ns = start;
    s.ready_ns = Now();
    s.ok = r.status.ok();
    s.cache_hit = r.cache_hit;
    s.warm_start = r.warm_start;
    s.queue_s = r.queue_seconds;
    s.train_s = r.train_seconds;
    s.generate_s = r.generate_seconds;
    if (lsg::obs::Enabled()) {
      lsg::obs::SpanTracer::Global().Record("bench.service", start,
                                            s.ready_ns - start);
    }
    lsg::MutexLock lock(&mu_);
    seen_[id] = s;
  }

  lsg::net::RequestDispatcher* inner_;
  lsg::Mutex mu_;
  std::map<uint64_t, ServerSide> seen_ LSG_GUARDED_BY(mu_);
};

// ------------------------------------------------------------ client side

/// How long a client waits for an answer before the run counts the request
/// as unanswered (the whole command must finish within 180 s).
constexpr int kClientTimeoutMs = 60'000;

/// One request as the client saw it.
struct ClientRecord {
  uint64_t id = 0;
  size_t target = 0;
  uint64_t due_ns = 0;   ///< scheduled send (open loop) or actual send
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;  ///< 0 = never answered
  std::string line;
};

/// Closed loop: `connections` clients each send one request and wait for
/// its answer before taking the next from the shared list, until the list
/// runs out.
std::vector<ClientRecord> RunClosedLoop(int port, int connections,
                                        const std::vector<Planned>& requests,
                                        const std::vector<Target>& targets,
                                        int n, std::vector<std::string>* errors) {
  std::vector<ClientRecord> records(requests.size());
  std::atomic<size_t> next{0};
  std::vector<std::string> thread_errors(connections);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = lsg::net::BlockingClient::Connect("127.0.0.1", port,
                                                      kClientTimeoutMs);
      if (!client.ok()) {
        thread_errors[c] = client.status().ToString();
        return;
      }
      for (;;) {
        // relaxed: a ticket dispenser; records[i] is owned by whoever
        // drew i, and the joins below publish it.
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        ClientRecord& r = records[i];
        r.id = requests[i].id;
        r.target = requests[i].target;
        r.send_ns = Now();
        r.due_ns = r.send_ns;
        lsg::Status sent = client->SendLine(
            lsg::net::BuildRequestLine("bench", r.id, targets[r.target].json,
                                       n, /*batch=*/true));
        if (!sent.ok()) {
          thread_errors[c] = sent.ToString();
          return;
        }
        auto line = client->ReadLine();
        if (!line.ok()) {
          thread_errors[c] = line.status().ToString();
          return;
        }
        r.recv_ns = Now();
        r.line = std::move(*line);
        if (lsg::obs::Enabled()) {
          lsg::obs::SpanTracer::Global().Record("bench.request", r.send_ns,
                                                r.recv_ns - r.send_ns);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : thread_errors) {
    if (!e.empty()) errors->push_back("client: " + e);
  }
  // Drop tickets never drawn because every client failed.
  records.resize(std::min(records.size(), next.load()));
  std::vector<ClientRecord> sent;
  for (ClientRecord& r : records) {
    if (r.send_ns != 0) sent.push_back(std::move(r));
  }
  return sent;
}

/// Reads the echoed id from a response line ({"id": N, ...}).
bool ResponseId(const std::string& line, uint64_t* id) {
  static constexpr char kPrefix[] = "{\"id\": ";
  if (line.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) return false;
  char* end = nullptr;
  *id = std::strtoull(line.c_str() + sizeof(kPrefix) - 1, &end, 10);
  return end != nullptr && *end == ',';
}

/// Open loop: requests go out at their scheduled times whether or not
/// earlier ones were answered, round-robin over `connections`. Each
/// connection is served by one thread that polls its socket until the next
/// send is due, so several frames are in flight per connection.
std::vector<ClientRecord> RunOpenLoop(int port, int connections,
                                      const std::vector<Planned>& requests,
                                      const std::vector<Target>& targets,
                                      int n, uint64_t start_ns,
                                      uint64_t give_up_ns,
                                      std::vector<std::string>* errors) {
  std::vector<ClientRecord> records(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    records[i].id = requests[i].id;
    records[i].target = requests[i].target;
    records[i].due_ns = start_ns + requests[i].due_ns;
  }
  std::vector<std::string> thread_errors(connections);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = lsg::net::BlockingClient::Connect("127.0.0.1", port,
                                                      kClientTimeoutMs);
      if (!client.ok()) {
        thread_errors[c] = client.status().ToString();
        return;
      }
      std::map<uint64_t, size_t> inflight;  // id -> record index
      size_t next = static_cast<size_t>(c);
      std::string buf;
      char chunk[65536];
      while (next < records.size() || !inflight.empty()) {
        uint64_t now = Now();
        if (now >= give_up_ns) return;  // unanswered requests stay recv 0
        if (next < records.size() && now >= records[next].due_ns) {
          ClientRecord& r = records[next];
          r.send_ns = now;
          lsg::Status sent = client->SendLine(
              lsg::net::BuildRequestLine("bench", r.id, targets[r.target].json,
                                         n, /*batch=*/true));
          if (!sent.ok()) {
            thread_errors[c] = sent.ToString();
            return;
          }
          inflight[r.id] = next;
          next += static_cast<size_t>(connections);
          continue;
        }
        const uint64_t wake =
            next < records.size() ? records[next].due_ns : give_up_ns;
        const uint64_t wait_ns = wake > now ? wake - now : 0;
        struct timespec ts;
        ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000ull);
        ts.tv_nsec = static_cast<long>(wait_ns % 1000000000ull);
        struct pollfd pfd = {client->fd(), POLLIN, 0};
        int ready = ::ppoll(&pfd, 1, &ts, nullptr);
        if (ready <= 0) continue;
        ssize_t got = ::recv(client->fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
        if (got == 0) {
          thread_errors[c] = "server closed the connection";
          return;
        }
        if (got < 0) continue;  // EAGAIN/EINTR: poll again
        const uint64_t recv_ns = Now();
        buf.append(chunk, static_cast<size_t>(got));
        size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
          std::string line = buf.substr(0, nl);
          buf.erase(0, nl + 1);
          uint64_t id = 0;
          auto it = ResponseId(line, &id) ? inflight.find(id) : inflight.end();
          if (it == inflight.end()) {
            thread_errors[c] = "response with unknown id: " + line.substr(0, 80);
            return;
          }
          ClientRecord& r = records[it->second];
          inflight.erase(it);
          r.recv_ns = recv_ns;
          r.line = std::move(line);
          if (lsg::obs::Enabled()) {
            lsg::obs::SpanTracer::Global().Record("bench.request", r.send_ns,
                                                  r.recv_ns - r.send_ns);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : thread_errors) {
    if (!e.empty()) errors->push_back("client: " + e);
  }
  return records;
}

// ------------------------------------------------------------ spans

/// Copies the global span ring into memory while the run goes on (the ring
/// keeps only the newest 64k spans) and counts spans lost to overwrite.
class SpanCollector {
 public:
  SpanCollector() = default;
  ~SpanCollector() { Stop(); }
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  void Start() {
    thread_ = std::thread([this] {
      // relaxed: a stop flag; the final Drain after join reads everything.
      while (!stop_.load(std::memory_order_relaxed)) {
        Drain();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  void Stop() {
    if (!thread_.joinable()) return;
    // relaxed: see Start; join() orders the thread's writes before ours.
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    Drain();
  }

  const std::vector<lsg::obs::SpanTracer::Span>& spans() const {
    return spans_;
  }
  uint64_t dropped() const { return dropped_; }

 private:
  void Drain() {
    for (const auto& s : lsg::obs::SpanTracer::Global().Snapshot()) {
      if (s.seq <= last_seq_) continue;
      dropped_ += s.seq - last_seq_ - 1;
      last_seq_ = s.seq;
      spans_.push_back(s);
    }
  }

  std::vector<lsg::obs::SpanTracer::Span> spans_;
  uint64_t last_seq_ = 0;
  uint64_t dropped_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void WriteChromeTrace(const std::string& path,
                      const std::vector<lsg::obs::SpanTracer::Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& s : spans) {
    out << (first ? "\n" : ",\n")
        << StrFormat("{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                     s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.duration_ns) / 1e3);
    first = false;
  }
  out << "\n]}\n";
}

// ------------------------------------------------------------ statistics

/// Nearest-rank quantile of `v` (sorted in place).
double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  return (*v)[std::max<size_t>(rank, 1) - 1];
}

/// A percentile is reported only where at least 10 samples lie beyond it.
bool Reportable(size_t n, double q) {
  return static_cast<double>(n) - std::ceil(q * static_cast<double>(n)) >= 10;
}

uint64_t CounterOr0(const lsg::obs::MetricsSnapshot& s, const char* name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

lsg::obs::HistogramStats HistOr0(const lsg::obs::MetricsSnapshot& s,
                                 const char* name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? lsg::obs::HistogramStats{} : it->second;
}

const char* const kErrorCounters[] = {
    "net.req.bad_frame",     "net.req.bad_request", "net.req.over_quota",
    "net.req.over_inflight", "net.req.queue_full",  "net.req.draining",
    "net.req.timeout",       "net.req.internal"};

/// Peak resident set (VmHWM) in MiB since process start or the last
/// ResetPeakRss().
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Returns free heap pages to the kernel and restarts the peak-RSS
/// high-water mark, so the measured phase's peak is what serving the
/// workload holds, not which thread's arena kept set-up's transient
/// garbage (that varied by ~14 MB between otherwise identical runs).
bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

/// FNV-1a 64, for the output digest.
void Fnv(uint64_t* h, const std::string& s) {
  for (unsigned char ch : s) {
    *h ^= ch;
    *h *= 1099511628211ull;
  }
  *h ^= 0xff;
  *h *= 1099511628211ull;
}

// ------------------------------------------------------------ json out

class JsonObj {
 public:
  void Num(const std::string& k, double v) {
    Key(k);
    body_ += std::isfinite(v) ? FormatDouble(v) : "null";
  }
  void Int(const std::string& k, uint64_t v) {
    Key(k);
    body_ += std::to_string(v);
  }
  void Bool(const std::string& k, bool v) {
    Key(k);
    body_ += v ? "true" : "false";
  }
  void Str(const std::string& k, const std::string& v) {
    Key(k);
    body_ += '"';
    lsg::net::JsonEscapeTo(v, &body_);
    body_ += '"';
  }
  void Raw(const std::string& k, const std::string& json) {
    Key(k);
    body_ += json;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& k) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    lsg::net::JsonEscapeTo(k, &body_);
    body_ += "\": ";
  }
  std::string body_;
};

// ------------------------------------------------------------ the run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string out = ".bench_out";
};

int Usage() {
  std::fprintf(stderr,
               "usage: lsgbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--setup-only] [--out DIR]\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Sends `targets` as n=1 batch requests over two waiting clients and
/// returns their client records (set-up: readiness and pre-training).
std::vector<ClientRecord> SetupRequests(int port,
                                        const std::vector<Target>& targets,
                                        uint64_t id_base,
                                        std::vector<std::string>* errors) {
  std::vector<Planned> reqs;
  for (size_t i = 0; i < targets.size(); ++i) {
    reqs.push_back(Planned{id_base + i, i, 0});
  }
  return RunClosedLoop(port, std::min<int>(kWorkers, targets.size()), reqs,
                       targets, 1, errors);
}

bool AllOk(const std::vector<ClientRecord>& records, size_t expected) {
  if (records.size() != expected) return false;
  for (const ClientRecord& r : records) {
    if (r.recv_ns == 0 || r.line.find("\"ok\": true") == std::string::npos) {
      return false;
    }
  }
  return true;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) return Usage();
#ifndef NDEBUG
  std::fprintf(stderr, "lsgbench: refusing to measure a debug build\n");
  return 3;
#endif
  lsg::obs::SetEnabled(args.trace);
  SpanCollector spans;
  if (args.trace) spans.Start();
  auto span = [&](const char* name, uint64_t start, uint64_t end) {
    if (args.trace) lsg::obs::SpanTracer::Global().Record(name, start, end - start);
  };
  std::vector<std::string> violations;
  std::filesystem::create_directories(args.out);

  // ---- set-up: dataset, service, server, readiness
  const uint64_t t_db = Now();
  auto db = lsg::BuildNamedDatabase(spec->dataset, spec->scale);
  if (!db.ok()) {
    std::fprintf(stderr, "dataset: %s\n", db.status().ToString().c_str());
    return 2;
  }
  const uint64_t t_db_end = Now();
  span("bench.setup.dataset", t_db, t_db_end);

  lsg::obs::MetricsRegistry registry;  // net.* and service.* side by side
  lsg::GenerationServiceOptions so;
  so.num_workers = kWorkers;
  so.gen.train_epochs = spec->epochs;
  so.gen.true_feedback_tail = spec->true_feedback_tail;
  so.metrics_registry = &registry;
  std::string spill_dir;
  if (spec->spill) {
    spill_dir = StrFormat("%s/spill-%s-%d", args.out.c_str(), spec->name,
                          static_cast<int>(::getpid()));
    std::filesystem::remove_all(spill_dir);
    so.registry.spill_dir = spill_dir;
  }
  if (spec->registry_capacity > 0) {
    so.registry.capacity = spec->registry_capacity;
  }
  auto service = lsg::GenerationService::Create(&*db, so);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.status().ToString().c_str());
    return 2;
  }
  lsg::net::ServiceDispatcher service_dispatcher(service->get());
  TimingDispatcher dispatcher(&service_dispatcher);
  lsg::net::NetServerOptions no;
  no.port = 0;
  no.metrics_registry = &registry;
  auto server = lsg::net::NetServer::Create(&dispatcher, no);
  if (!server.ok() || !(*server)->Start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 2;
  }
  const int port = (*server)->port();

  const uint64_t t_first = Now();
  auto ready = SetupRequests(port, {MakeTarget(ReadinessConstraint())},
                             kReadinessId, &violations);
  const uint64_t t_ready = Now();
  span("bench.setup.first_request", t_first, t_ready);
  if (!AllOk(ready, 1)) {
    std::fprintf(stderr, "readiness request failed\n");
    return 2;
  }

  // Inputs: constraints on the probed domain (not part of set-up time).
  std::vector<Constraint> grid = PaperGrid(*db, service->get()->options().gen);
  Plan plan = MakePlan(*spec, grid, args.seed, args.seconds);

  std::vector<Target> warm;
  for (size_t i : plan.pretrain) warm.push_back(plan.targets[i]);
  const uint64_t t_warm = Now();
  if (!warm.empty()) {
    auto warmed = SetupRequests(port, warm, kPretrainIdBase, &violations);
    if (!AllOk(warmed, warm.size())) {
      std::fprintf(stderr, "pre-training request failed\n");
      return 2;
    }
  }
  const uint64_t t_warm_end = Now();
  const double rss_setup_mb = PeakRssMb();
  if (!args.setup_only && !ResetPeakRss()) {
    violations.push_back("cannot reset the peak-RSS mark");
  }
  if (!warm.empty()) span("bench.setup.warmup", t_warm, t_warm_end);
  const double setup_s =
      Seconds(t_ready - g_process_start_ns) + Seconds(t_warm_end - t_warm);

  auto shutdown = [&] {
    (*server)->BeginDrain();
    lsg::Status joined = (*server)->Join();
    if (!joined.ok()) violations.push_back("server join: " + joined.ToString());
    (*service)->Shutdown();
  };

  if (args.setup_only) {
    shutdown();
    if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
    JsonObj o;
    o.Str("workload", spec->name);
    o.Num("setup_s", setup_s);
    std::printf("%s\n", o.Done().c_str());
    return 0;
  }

  // ---- measured phase
  std::fprintf(stderr,
               "lsgbench: %s seed %llu, %zu targets, %zu planned requests, "
               "set-up %.3f s\n",
               spec->name, static_cast<unsigned long long>(args.seed),
               plan.targets.size(), plan.requests.size(), setup_s);
  const lsg::ServiceMetricsSnapshot svc_before = (*service)->Metrics();
  const lsg::obs::MetricsSnapshot reg_before = registry.Snapshot();
  const lsg::obs::MetricsSnapshot glob_before =
      lsg::obs::MetricsRegistry::Global().Snapshot();
  const uint64_t t_run = Now();
  const uint64_t run_ns = static_cast<uint64_t>(args.seconds * 1e9);
  std::vector<ClientRecord> records =
      spec->open_loop
          ? RunOpenLoop(port, spec->connections, plan.requests, plan.targets,
                        spec->n, t_run,
                        t_run + run_ns + uint64_t{kClientTimeoutMs} * 1'000'000ull,
                        &violations)
          : RunClosedLoop(port, spec->connections, plan.requests,
                          plan.targets, spec->n, &violations);
  const lsg::ServiceMetricsSnapshot svc_after = (*service)->Metrics();
  const double rss_mb = PeakRssMb();
  const lsg::obs::MetricsSnapshot reg_after = registry.Snapshot();
  uint64_t t_last = t_run;
  for (const ClientRecord& r : records) t_last = std::max(t_last, r.recv_ns);
  const double wall_s = Seconds(t_last - t_run);

  shutdown();
  spans.Stop();
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
  const lsg::obs::MetricsSnapshot reg_final = registry.Snapshot();
  const lsg::obs::MetricsSnapshot glob = lsg::obs::MetricsRegistry::Global().Snapshot();
  const std::map<uint64_t, ServerSide> server_side = dispatcher.Seen();

  // ---- check every response
  uint64_t ok = 0, failed = 0, queries = 0, attempts = 0, satisfied = 0;
  uint64_t hits = 0, slo_met = 0, bad_sql = 0;
  std::map<std::string, uint64_t> errors_by_code;
  std::vector<double> lat_ms, hit_lat_ms, lag_ms, net_us, queue_ms, acquire_ms,
      generate_ms, unattributed_ms, hit_wait_ms;
  std::vector<std::pair<uint64_t, const ClientRecord*>> by_id;
  struct TargetStats {
    uint64_t requests = 0, satisfied = 0;
    std::vector<double> latency_ms;
  };
  std::vector<TargetStats> per_target(plan.targets.size());
  auto violate = [&](const std::string& what) {
    if (violations.size() < 20) violations.push_back(what);
  };
  for (const ClientRecord& r : records) {
    if (spec->open_loop && r.send_ns != 0) {
      lag_ms.push_back(Millis(r.send_ns - r.due_ns));
    }
    if (r.recv_ns == 0) {
      ++failed;
      errors_by_code["unanswered"]++;
      continue;
    }
    auto doc = lsg::obs::JsonParse(r.line);
    if (!doc.ok() || !doc->is_object()) {
      violate(StrFormat("id %llu: unparseable response",
                        static_cast<unsigned long long>(r.id)));
      ++failed;
      continue;
    }
    if (static_cast<uint64_t>(doc->NumberOr("id", -1)) != r.id) {
      violate(StrFormat("id %llu: id not echoed",
                        static_cast<unsigned long long>(r.id)));
    }
    const JsonValue* okv = doc->Find("ok");
    if (okv == nullptr || !okv->b) {
      ++failed;
      errors_by_code[doc->StringOr("error", "unknown")]++;
      continue;
    }
    ++ok;
    const Target& target = plan.targets[r.target];
    const int sat = static_cast<int>(doc->NumberOr("satisfied", -1));
    const int att = static_cast<int>(doc->NumberOr("attempts", -1));
    const JsonValue* qs = doc->Find("queries");
    const size_t nq = qs != nullptr && qs->is_array() ? qs->array.size() : 0;
    if (sat < 0 || att < 0 || sat > att) {
      violate(StrFormat("id %llu: satisfied %d > attempts %d",
                        static_cast<unsigned long long>(r.id), sat, att));
    }
    if (static_cast<int>(nq) != spec->n || att != spec->n) {
      violate(StrFormat("id %llu: batch of %d returned %zu queries",
                        static_cast<unsigned long long>(r.id), spec->n, nq));
    }
    int inside = 0;
    for (size_t i = 0; i < nq; ++i) {
      const JsonValue& q = qs->array[i];
      auto parsed = lsg::ParseSql(q.StringOr("sql", ""), db->catalog());
      if (!parsed.ok()) ++bad_sql;
      if (target.constraint.Satisfied(q.NumberOr("metric", -1))) ++inside;
    }
    if (inside != sat) {
      violate(StrFormat("id %llu: %d queries inside %s but %d reported",
                        static_cast<unsigned long long>(r.id), inside,
                        target.constraint.ToString().c_str(), sat));
    }
    queries += nq;
    attempts += static_cast<uint64_t>(std::max(att, 0));
    satisfied += static_cast<uint64_t>(std::max(sat, 0));
    by_id.emplace_back(r.id, &r);

    const double rtt_ms = Millis(r.recv_ns - r.due_ns);
    lat_ms.push_back(rtt_ms);
    per_target[r.target].requests++;
    per_target[r.target].satisfied += static_cast<uint64_t>(std::max(sat, 0));
    per_target[r.target].latency_ms.push_back(rtt_ms);
    if (rtt_ms <= spec->slo_ms) ++slo_met;
    const bool hit = doc->Find("cache_hit") != nullptr && doc->Find("cache_hit")->b;
    if (hit) {
      ++hits;
      hit_lat_ms.push_back(rtt_ms);
    }
    auto ss = server_side.find(r.id);
    if (ss == server_side.end() || !ss->second.ok) {
      violate(StrFormat("id %llu: no service record",
                        static_cast<unsigned long long>(r.id)));
      continue;
    }
    const ServerSide& s = ss->second;
    const double rtt_s = Seconds(r.recv_ns - r.send_ns);
    const double svc_s = Seconds(s.ready_ns - s.dispatch_ns);
    const double acq_s = svc_s - s.queue_s - s.generate_s;
    const bool trained = !s.cache_hit && !s.warm_start;
    net_us.push_back((rtt_s - svc_s) * 1e6);
    queue_ms.push_back(s.queue_s * 1e3);
    acquire_ms.push_back(acq_s * 1e3);
    generate_ms.push_back(s.generate_s * 1e3);
    unattributed_ms.push_back(
        (svc_s - s.queue_s - (trained ? s.train_s : 0.0) - s.generate_s) * 1e3);
    if (s.cache_hit) hit_wait_ms.push_back(acq_s * 1e3);
  }
  if (bad_sql > 0) {
    violate(StrFormat("%llu returned queries do not re-parse",
                      static_cast<unsigned long long>(bad_sql)));
  }

  // Accounting identities, read after Join when the counters are quiet.
  {
    uint64_t answered = CounterOr0(reg_final, "net.req.ok") +
                        CounterOr0(reg_final, "net.req.pings") +
                        CounterOr0(reg_final, "net.req.orphaned");
    for (const char* name : kErrorCounters) {
      answered += CounterOr0(reg_final, name);
    }
    if (CounterOr0(reg_final, "net.req.received") != answered) {
      violate("net.req.received != ok + pings + errors + orphaned");
    }
    const lsg::ServiceMetricsSnapshot fin = (*service)->Metrics();
    if (fin.requests_submitted !=
        fin.requests_completed + fin.requests_failed + fin.requests_rejected) {
      violate("service submitted != completed + failed + rejected");
    }
  }
  const uint64_t trainings = svc_after.trainings - svc_before.trainings;
  if (std::string(spec->name) == "warm_decode" && trainings != 0) {
    violate("warm_decode trained in its measured phase");
  }
  // Open-loop honesty: a late generator offers less load than planned and
  // would flatter the server. Its normal p99 lateness is under 1 ms; 50 ms
  // leaves room for the host's scheduling hiccups (one run in ~40 reached
  // 14 ms) while still catching a starved generator.
  constexpr double kMaxLagMs = 50.0;
  std::vector<double> lag_sorted = lag_ms;
  const double lag_p99 = Quantile(&lag_sorted, 0.99);
  if (spec->open_loop && lag_p99 > kMaxLagMs) {
    violate(StrFormat("load generator p99 lag %.3f ms exceeds %.1f ms",
                      lag_p99, kMaxLagMs));
  }
  if (!Reportable(lat_ms.size(), 0.5)) {
    violate(StrFormat("only %zu ok requests; p50 needs 20", lat_ms.size()));
  }

  // Fixed-seed output digest over every ok response, ordered by id.
  std::sort(by_id.begin(), by_id.end());
  const size_t digest_n = by_id.size();
  uint64_t digest = 1469598103934665603ull;
  for (size_t i = 0; i < digest_n; ++i) {
    Fnv(&digest, std::to_string(by_id[i].first));
    auto doc = lsg::obs::JsonParse(by_id[i].second->line);
    if (const JsonValue* qs = doc.ok() ? doc->Find("queries") : nullptr) {
      for (const JsonValue& q : qs->array) Fnv(&digest, q.StringOr("sql", ""));
    }
  }

  // ---- metrics
  const uint64_t sent = records.size();
  std::vector<double> all_lat = lat_ms;
  for (uint64_t i = 0; i < failed; ++i) all_lat.push_back(INFINITY);
  JsonObj e2e, extra;
  e2e.Num("setup_s", setup_s);
  {
    std::vector<double> v = all_lat;
    e2e.Num("latency_p50_ms", Quantile(&v, 0.5));
  }
  e2e.Num("requests_per_s", static_cast<double>(ok) / wall_s);
  e2e.Num("queries_per_s", static_cast<double>(queries) / wall_s);
  e2e.Num("satisfied_frac", attempts == 0 ? 0.0
                                          : static_cast<double>(satisfied) /
                                                static_cast<double>(attempts));
  e2e.Num("peak_rss_mb", rss_mb);
  for (double q : {0.9, 0.99}) {
    if (Reportable(all_lat.size(), q)) {
      std::vector<double> v = all_lat;
      extra.Num(q == 0.9 ? "latency_p90_ms" : "latency_p99_ms", Quantile(&v, q));
    }
  }
  if (Reportable(hit_lat_ms.size(), 0.9)) {
    std::vector<double> v = hit_lat_ms;
    extra.Num("hit_latency_p90_ms", Quantile(&v, 0.9));
  }
  extra.Num("error_frac", static_cast<double>(failed) / static_cast<double>(sent));
  extra.Int("samples", lat_ms.size());
  extra.Num("peak_rss_mb.setup", rss_setup_mb);
  extra.Num("wall_s", wall_s);
  if (spec->open_loop) {
    extra.Num("schedule_lag_p99_ms", lag_p99);
    extra.Num("slo_frac",
              static_cast<double>(slo_met) / static_cast<double>(sent));
  }
  {
    JsonObj codes;
    for (const auto& [code, count] : errors_by_code) codes.Int(code, count);
    extra.Raw("errors_by_code", codes.Done());
  }
  if (spec->buckets > 0) {
    // Latency and accuracy per bucket, most popular first.
    std::string rows = "[";
    for (size_t k = 0; k < per_target.size(); ++k) {
      TargetStats& t = per_target[k];
      JsonObj row;
      row.Str("constraint", plan.targets[k].constraint.ToString());
      row.Int("requests", t.requests);
      row.Int("satisfied", t.satisfied);
      row.Num("latency_p50_ms", Quantile(&t.latency_ms, 0.5));
      rows += (k ? ", " : "") + row.Done();
    }
    extra.Raw("per_bucket", rows + "]");
  }

  JsonObj layers;
  if (args.trace) {
    auto q = [](std::vector<double> v, double p) { return Quantile(&v, p); };
    layers.Num("setup.dataset_s", Seconds(t_db_end - t_db));
    layers.Num("setup.first_request_s", Seconds(t_ready - t_first));
    layers.Num("setup.warmup_frac", Seconds(t_warm_end - t_warm) / setup_s);
    layers.Num("net.overhead_us.p50", q(net_us, 0.5));
    layers.Num("net.overhead_us.p99", q(net_us, 0.99));
    // Histogram quantiles are bucket midpoints that repeat exactly from run
    // to run; time metrics use the exact means, quantiles stay informational.
    layers.Num("net.parse_us.mean",
               HistOr0(reg_final, "net.req.parse_ns").mean / 1e3);
    layers.Int("net.rejected", failed);
    layers.Num("service.queue_wait_ms.p50", q(queue_ms, 0.5));
    layers.Num("service.queue_wait_ms.p99", q(queue_ms, 0.99));
    {
      auto b0 = HistOr0(reg_before, "service.batch_size");
      auto b1 = HistOr0(reg_after, "service.batch_size");
      layers.Num("service.batch_width.mean",
                 b1.count > b0.count ? (b1.sum - b0.sum) /
                                           static_cast<double>(b1.count - b0.count)
                                     : 0.0);
    }
    layers.Num("service.busy_frac",
               (svc_after.busy_seconds - svc_before.busy_seconds) /
                   (kWorkers * wall_s));
    layers.Num("registry.hit_frac",
               ok == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(ok));
    layers.Int("registry.trainings", trainings);
    layers.Int("registry.evictions", svc_after.evictions - svc_before.evictions);
    layers.Int("registry.warm_starts",
               svc_after.disk_warm_starts - svc_before.disk_warm_starts);
    layers.Num("registry.acquire_ms.p50", q(acquire_ms, 0.5));
    layers.Num("registry.acquire_ms.p99", q(acquire_ms, 0.99));
    // Training-side numbers cover every training in the process (set-up
    // included), so warm workloads report their set-up trainings.
    {
      std::vector<double> train_ms, build_ms;
      for (const auto& [id, s] : server_side) {
        if (!s.ok || s.cache_hit) continue;
        const double acq = Seconds(s.ready_ns - s.dispatch_ns) - s.queue_s -
                           s.generate_s;
        const double tr = s.warm_start ? 0.0 : s.train_s;
        if (!s.warm_start) train_ms.push_back(tr * 1e3);
        build_ms.push_back((acq - tr) * 1e3);
      }
      layers.Num("registry.train_ms.p50", q(train_ms, 0.5));
      layers.Num("registry.build_overhead_ms.p50", q(build_ms, 0.5));
    }
    {
      double hit_wait = 0, hit_rtt = 0;
      for (double x : hit_wait_ms) hit_wait += x;
      for (double x : hit_lat_ms) hit_rtt += x;
      layers.Num("registry.hit_wait_share", hit_rtt > 0 ? hit_wait / hit_rtt : 0.0);
    }
    // Span-derived training split: epoch = update + env.step + the rest
    // (policy forward, masked softmax, sampling).
    {
      std::map<int, std::vector<std::pair<uint64_t, uint64_t>>> epochs_by_tid;
      double epoch_ns = 0, update_ns = 0, step_in_epoch_ns = 0;
      double step_ns = 0;
      size_t n_epoch = 0, n_update = 0, n_step = 0;
      const auto& all = spans.spans();
      for (const auto& s : all) {
        const std::string name = s.name;
        if (name == "rl.ac_epoch") {
          epochs_by_tid[s.tid].emplace_back(s.start_ns, s.start_ns + s.duration_ns);
          epoch_ns += static_cast<double>(s.duration_ns);
          ++n_epoch;
        } else if (name == "rl.ac_update") {
          update_ns += static_cast<double>(s.duration_ns);
          ++n_update;
        }
      }
      for (auto& [tid, v] : epochs_by_tid) std::sort(v.begin(), v.end());
      for (const auto& s : all) {
        if (std::string(s.name) != "env.step") continue;
        if (s.start_ns >= t_run) {
          step_ns += static_cast<double>(s.duration_ns);
          ++n_step;
        }
        auto it = epochs_by_tid.find(s.tid);
        if (it == epochs_by_tid.end()) continue;
        const auto& v = it->second;
        auto e = std::upper_bound(v.begin(), v.end(),
                                  std::make_pair(s.start_ns, UINT64_MAX));
        if (e != v.begin() && s.start_ns + s.duration_ns <= std::prev(e)->second) {
          step_in_epoch_ns += static_cast<double>(s.duration_ns);
        }
      }
      const double ne = std::max<double>(n_epoch, 1);
      layers.Num("rl.epoch_ms.mean", epoch_ns / ne / 1e6);
      layers.Num("rl.update_ms.mean", n_update ? update_ns / n_update / 1e6 : 0.0);
      layers.Num("rl.rollout_self_ms.mean",
                 (epoch_ns - update_ns - step_in_epoch_ns) / ne / 1e6);
      layers.Num("core.env_step_us.mean", n_step ? step_ns / n_step / 1e3 : 0.0);
      auto exec = HistOr0(glob, "exec.select_ns");
      auto vexec = HistOr0(glob, "vexec.select_ns");
      const double exec_ns = exec.sum + vexec.sum;
      layers.Num("exec.select_share", epoch_ns > 0 ? exec_ns / epoch_ns : 0.0);
      layers.Int("exec.calls", CounterOr0(glob, "env.true_feedback_calls"));
      extra.Num("exec.select_ms.p50",
                (vexec.count > exec.count ? vexec.p50 : exec.p50) / 1e6);
      extra.Num("exec.select_ms.p99",
                (vexec.count > exec.count ? vexec.p99 : exec.p99) / 1e6);
      extra.Num("train_split.update", epoch_ns > 0 ? update_ns / epoch_ns : 0.0);
      extra.Num("train_split.env_step",
                epoch_ns > 0 ? step_in_epoch_ns / epoch_ns : 0.0);
      extra.Num("train_split.rollout_self",
                epoch_ns > 0 ? (epoch_ns - update_ns - step_in_epoch_ns) / epoch_ns
                             : 0.0);
      extra.Int("trace.spans", all.size());
      extra.Int("trace.spans_dropped", spans.dropped());
    }
    layers.Num("core.generate_ms.p50", q(generate_ms, 0.5));
    layers.Num("core.generate_ms.p99", q(generate_ms, 0.99));
    {
      const uint64_t evals = CounterOr0(glob, "fsm.mask_evals") -
                             CounterOr0(glob_before, "fsm.mask_evals");
      const uint64_t width = CounterOr0(glob, "fsm.mask_width_sum") -
                             CounterOr0(glob_before, "fsm.mask_width_sum");
      layers.Int("fsm.mask_evals", evals);
      layers.Num("fsm.mask_width.mean",
                 evals ? static_cast<double>(width) / static_cast<double>(evals)
                       : 0.0);
    }
    {
      auto fb = HistOr0(glob, "env.feedback_ns");
      auto est = HistOr0(glob, "opt.estimate_ns");
      layers.Num("optimizer.feedback_us.mean", fb.mean / 1e3);
      extra.Num("optimizer.feedback_us.p99", fb.p99 / 1e3);
      extra.Num("optimizer.estimate_us.mean", est.mean / 1e3);
      const double h = static_cast<double>(CounterOr0(glob, "opt.cache.hits"));
      const double m = static_cast<double>(CounterOr0(glob, "opt.cache.misses"));
      layers.Num("optimizer.cache_hit_frac", h + m > 0 ? h / (h + m) : 0.0);
    }
    {
      std::vector<double> lat = lat_ms;
      const double p50 = Quantile(&lat, 0.5);
      layers.Num("trace.unattributed_frac",
                 p50 > 0 ? q(unattributed_ms, 0.5) / p50 : 0.0);
    }
    WriteChromeTrace(StrFormat("%s/trace-%s-%llu.json", args.out.c_str(),
                               spec->name,
                               static_cast<unsigned long long>(args.seed)),
                     spans.spans());
  }

  // ---- metadata
  JsonObj meta;
  meta.Str("build_type", LSG_BENCH_BUILD_TYPE);
  meta.Str("compiler", LSG_BENCH_CXX_ID);
  meta.Int("nproc", std::thread::hardware_concurrency());
  {
    JsonObj rows;
    for (const lsg::Table& t : db->tables()) rows.Int(t.name(), t.num_rows());
    meta.Raw("dataset_rows", rows.Done());
  }
  meta.Str("dataset", spec->dataset);
  meta.Num("row_scale", spec->scale);
  {
    const lsg::GenerationServiceOptions& o = (*service)->options();
    JsonObj opts;
    opts.Int("workers", o.num_workers);
    opts.Int("max_batch", o.max_batch);
    opts.Int("queue_capacity", o.queue_capacity);
    opts.Int("epochs", o.gen.train_epochs);
    opts.Int("registry_capacity", o.registry.capacity);
    opts.Bool("spill", !o.registry.spill_dir.empty());
    opts.Str("execution_backend",
             o.gen.execution_backend == lsg::ExecutionBackendKind::kVectorized
                 ? "vectorized"
                 : "reference");
    opts.Num("true_feedback_tail", o.gen.true_feedback_tail);
    opts.Bool("compiled_fsm", o.gen.use_compiled_fsm);
    meta.Raw("service_options", opts.Done());
  }
  JsonObj load;
  load.Str("loop", spec->open_loop ? "open" : "closed");
  load.Int("connections", spec->connections);
  if (spec->open_loop) load.Num("rate_per_s", spec->rate);
  load.Int("n", spec->n);
  load.Str("mode", "batch");
  load.Int("buckets", plan.targets.size());
  if (spec->open_loop) load.Num("slo_ms", spec->slo_ms);
  meta.Raw("load", load.Done());

  JsonObj out;
  out.Str("workload", spec->name);
  out.Int("seed", args.seed);
  out.Bool("trace", args.trace);
  out.Bool("correct", violations.empty());
  {
    std::string v = "[";
    for (size_t i = 0; i < violations.size(); ++i) {
      if (i) v += ", ";
      v += '"';
      lsg::net::JsonEscapeTo(violations[i], &v);
      v += '"';
    }
    out.Raw("violations", v + "]");
  }
  out.Int("attempted", sent);
  out.Int("failed", failed);
  out.Str("digest", StrFormat("%016llx", static_cast<unsigned long long>(digest)));
  out.Int("digest_requests", digest_n);
  out.Raw("e2e", e2e.Done());
  out.Raw("extra", extra.Done());
  out.Raw("layers", layers.Done());
  out.Raw("meta", meta.Done());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      args.trace = value() == "1";
    } else if (a == "--setup-only") {
      args.setup_only = true;
    } else if (a == "--out") {
      args.out = value();
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) return Usage();
  return Run(args);
}
