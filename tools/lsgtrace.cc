// lsgtrace — observability front end: runs training or serving with the
// obs layer enabled and leaves behind a browsable artifact bundle:
//
//   <out>/trace.json      Chrome trace_event spans (chrome://tracing)
//   <out>/summary.json    flat metrics snapshot (counters/gauges/histograms)
//   <out>/episodes.jsonl  one row per generation episode (or .csv)
//
// plus a terminal summary (metric table + heaviest spans). After a --train
// run the tool re-reads episodes.jsonl and cross-checks the mean episode
// reward against the trainer's own per-epoch statistics; a mismatch is a
// telemetry bug and exits nonzero, which makes the ctest smoke
// self-checking.
//
// Examples:
//   lsgtrace --train tpch --episodes 200 --out /tmp/t
//   lsgtrace --train score --constraint "card range 5 50"
//   lsgtrace --serve tpch --episodes 100 --workers 4
//   lsgtrace --diff /tmp/a/summary.json /tmp/b/summary.json

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/test_databases.h"
#include "obs/episode_telemetry.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/span_tracer.h"
#include "service/generation_service.h"

namespace {

using namespace lsg;

void Usage() {
  std::printf(
      "lsgtrace — run training/serving under tracing, or diff snapshots\n\n"
      "modes (exactly one):\n"
      "  --train DATASET       train one model under tracing\n"
      "  --serve DATASET       run the generation service under tracing\n"
      "  --diff A.json B.json  align + compare two JSON metric files\n"
      "options:\n"
      "  --episodes N     total training episodes (default 200)\n"
      "  --constraint C   \"card|cost point V\" or \"card|cost range LO HI\"\n"
      "                   (default \"card range 5 50\")\n"
      "  --n N            queries to generate after training (default 10)\n"
      "  --workers W      service workers, --serve only (default 4)\n"
      "  --out DIR        artifact directory (default lsgtrace_out)\n"
      "  --csv            write episodes.csv instead of episodes.jsonl\n"
      "  --scale F        dataset scale factor (default 1.0)\n"
      "  --seed S         training and sampling seed (--train), the\n"
      "                   service's base seed (--serve) (default 2024)\n"
      "datasets: score, tpch, job, xuetang, edge\n");
}

bool ParseConstraint(const std::string& text, Constraint* out) {
  std::istringstream in(text);
  std::string metric_name, kind;
  if (!(in >> metric_name >> kind)) return false;
  ConstraintMetric metric;
  if (metric_name == "card") {
    metric = ConstraintMetric::kCardinality;
  } else if (metric_name == "cost") {
    metric = ConstraintMetric::kCost;
  } else {
    return false;
  }
  double a = 0, b = 0;
  if (kind == "point" && (in >> a)) {
    *out = Constraint::Point(metric, a);
    return true;
  }
  if (kind == "range" && (in >> a >> b)) {
    *out = Constraint::Range(metric, a, b);
    return true;
  }
  return false;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "lsgtrace: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

// Mean of the "reward" column over rows whose tag matches; the read-back
// half of the telemetry self-check.
StatusOr<double> MeanRewardFromJsonl(const std::string& path,
                                     const std::string& tag, int* rows_out) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string line;
  double sum = 0.0;
  int rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto row = obs::JsonParse(line);
    if (!row.ok()) return row.status();
    if (row->StringOr("tag", "") != tag) continue;
    sum += row->NumberOr("reward", 0.0);
    ++rows;
  }
  *rows_out = rows;
  if (rows == 0) return Status::FailedPrecondition("no rows tagged " + tag);
  return sum / rows;
}

// Writes the shared artifact bundle and prints the terminal summary.
bool DumpArtifacts(const std::string& out_dir) {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  bool ok = WriteFile(out_dir + "/trace.json",
                      obs::SpanTracer::Global().ChromeTraceJson());
  ok = WriteFile(out_dir + "/summary.json", snap.ToJson()) && ok;
  std::printf("\n-- metrics --\n%s", snap.ToTable().c_str());
  std::printf("\n-- spans --\n%s", obs::SpanTracer::Global().TextDump().c_str());
  return ok;
}

int RunTrain(const std::string& dataset, const Constraint& constraint,
             int episodes, int n, double scale, uint64_t seed,
             const std::string& out_dir, bool csv) {
  auto db = BuildNamedDatabase(dataset, scale);
  if (!db.ok()) {
    std::fprintf(stderr, "lsgtrace: %s\n", db.status().ToString().c_str());
    return 2;
  }

  LearnedSqlGenOptions opts;
  opts.trainer.seed = seed;
  const int batch = opts.trainer.batch_size;
  opts.train_epochs = std::max(1, episodes / batch);

  const std::string ep_path =
      out_dir + (csv ? "/episodes.csv" : "/episodes.jsonl");
  obs::EpisodeTelemetry sink(ep_path);
  sink.SetTag("train");
  obs::SetEpisodeSink(&sink);

  auto gen = LearnedSqlGen::Create(&*db, opts);
  if (!gen.ok()) {
    std::fprintf(stderr, "lsgtrace: %s\n", gen.status().ToString().c_str());
    return 2;
  }
  std::printf("training on %s: %d epochs x %d episodes, constraint %s\n",
              dataset.c_str(), opts.train_epochs, batch,
              constraint.ToString().c_str());
  if (Status s = (*gen)->Train(constraint); !s.ok()) {
    std::fprintf(stderr, "lsgtrace: train failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }

  sink.SetTag("generate");
  auto report = (*gen)->GenerateSatisfied(n);
  if (!report.ok()) {
    std::fprintf(stderr, "lsgtrace: generate failed: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  std::printf("generated %d/%d satisfying queries in %d attempts\n",
              report->satisfied, n, static_cast<int>(report->attempts));

  obs::SetEpisodeSink(nullptr);
  sink.Flush();
  bool ok = DumpArtifacts(out_dir);
  std::printf("\nartifacts in %s (%llu episode rows)\n", out_dir.c_str(),
              static_cast<unsigned long long>(sink.rows_written()));

  // Self-check: the sink's view of training must agree with the trainer's.
  // Every epoch trains `batch` episodes, so the mean of the per-epoch
  // mean_total_reward equals the mean over all train-tagged episode rows.
  double trainer_mean = 0.0;
  int epochs_seen = 0;
  for (const EpochStats& e : (*gen)->trace()) {
    trainer_mean += e.mean_total_reward;
    ++epochs_seen;
  }
  trainer_mean /= std::max(1, epochs_seen);
  if (csv) {
    std::printf("self-check skipped (csv mode; rows not re-parsed)\n");
    return ok ? 0 : 2;
  }
  int rows = 0;
  auto sink_mean = MeanRewardFromJsonl(ep_path, "train", &rows);
  if (!sink_mean.ok()) {
    std::fprintf(stderr, "lsgtrace: self-check failed to read rows: %s\n",
                 sink_mean.status().ToString().c_str());
    return 3;
  }
  double tol = 1e-6 * std::max(1.0, std::fabs(trainer_mean));
  bool match = std::fabs(*sink_mean - trainer_mean) <= tol &&
               rows == epochs_seen * batch;
  std::printf(
      "self-check: trainer mean reward %.9g vs episodes.jsonl %.9g over %d "
      "rows -> %s\n",
      trainer_mean, *sink_mean, rows, match ? "PASS" : "FAIL");
  return match && ok ? 0 : 3;
}

int RunServe(const std::string& dataset, const Constraint& constraint,
             int episodes, int n, int workers, double scale, uint64_t seed,
             const std::string& out_dir, bool csv) {
  auto db = BuildNamedDatabase(dataset, scale);
  if (!db.ok()) {
    std::fprintf(stderr, "lsgtrace: %s\n", db.status().ToString().c_str());
    return 2;
  }

  const std::string ep_path =
      out_dir + (csv ? "/episodes.csv" : "/episodes.jsonl");
  obs::EpisodeTelemetry sink(ep_path);
  sink.SetTag("serve");
  obs::SetEpisodeSink(&sink);

  GenerationServiceOptions opts;
  opts.num_workers = workers;
  opts.seed = seed;
  opts.gen.train_epochs = std::max(1, episodes / opts.gen.trainer.batch_size);
  // Publish the service counters into the same namespace as the training
  // instrumentation so one summary.json covers both.
  opts.metrics_registry = &obs::MetricsRegistry::Global();
  auto service = GenerationService::Create(&*db, opts);
  if (!service.ok()) {
    std::fprintf(stderr, "lsgtrace: %s\n",
                 service.status().ToString().c_str());
    return 2;
  }

  // A small mixed workload: the requested constraint plus siblings in
  // other buckets, repeated so cache hits happen.
  std::vector<Constraint> workload = {
      constraint,
      Constraint::Point(ConstraintMetric::kCardinality, 10),
      constraint,  // repeat: cache hit
  };
  std::vector<std::future<GenerationResponse>> futures;
  for (size_t i = 0; i < workload.size(); ++i) {
    GenerationRequest req;
    req.constraint = workload[i];
    req.n = n;
    req.batch = true;
    req.id = i + 1;
    futures.push_back((*service)->Submit(std::move(req)));
  }
  int failed = 0;
  for (auto& f : futures) {
    GenerationResponse r = f.get();
    if (!r.status.ok()) ++failed;
  }
  (*service)->Shutdown();

  ServiceMetricsSnapshot m = (*service)->Metrics();
  obs::SetEpisodeSink(nullptr);
  sink.Flush();
  bool ok = DumpArtifacts(out_dir);
  ok = WriteFile(out_dir + "/service.json", m.ToJson() + "\n") && ok;
  std::printf("\n%zu requests (%d failed), model cache hit rate %.2f\n",
              workload.size(), failed, m.cache_hit_rate());
  std::printf("artifacts in %s (%llu episode rows)\n", out_dir.c_str(),
              static_cast<unsigned long long>(sink.rows_written()));
  return ok && failed == 0 ? 0 : 3;
}

// Dotted-path recursive flatten of every numeric leaf (bools as 0/1).
void FlattenNumbers(const obs::JsonValue& v, const std::string& prefix,
                    std::map<std::string, double>* out) {
  using Kind = obs::JsonValue::Kind;
  switch (v.kind) {
    case Kind::kNumber:
      (*out)[prefix] = v.num;
      break;
    case Kind::kBool:
      (*out)[prefix] = v.b ? 1.0 : 0.0;
      break;
    case Kind::kObject:
      for (const auto& [key, child] : v.object) {
        FlattenNumbers(child, prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    case Kind::kArray:
      for (size_t i = 0; i < v.array.size(); ++i) {
        FlattenNumbers(v.array[i], prefix + "[" + std::to_string(i) + "]",
                       out);
      }
      break;
    default:
      break;
  }
}

int RunDiff(const std::string& path_a, const std::string& path_b) {
  auto read = [](const std::string& path) -> StatusOr<obs::JsonValue> {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    return obs::JsonParse(buf.str());
  };
  auto a = read(path_a);
  auto b = read(path_b);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "lsgtrace: %s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 2;
  }
  std::map<std::string, double> fa, fb;
  FlattenNumbers(*a, "", &fa);
  FlattenNumbers(*b, "", &fb);

  std::printf("%-48s %14s %14s %9s\n", "key", "A", "B", "delta%");
  for (const auto& [key, va] : fa) {
    auto it = fb.find(key);
    if (it == fb.end()) {
      std::printf("%-48s %14.6g %14s %9s\n", key.c_str(), va, "-", "-");
      continue;
    }
    double vb = it->second;
    double denom = std::fabs(va) > 1e-12 ? std::fabs(va) : 1.0;
    std::printf("%-48s %14.6g %14.6g %8.2f%%\n", key.c_str(), va, vb,
                100.0 * (vb - va) / denom);
  }
  for (const auto& [key, vb] : fb) {
    if (fa.find(key) == fa.end()) {
      std::printf("%-48s %14s %14.6g %9s\n", key.c_str(), "-", vb, "-");
    }
  }

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string train_dataset, serve_dataset, diff_a, diff_b;
  std::string out_dir = "lsgtrace_out";
  std::string constraint_text = "card range 5 50";
  int episodes = 200;
  int n = 10;
  int workers = 4;
  double scale = 1.0;
  uint64_t seed = 2024;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lsgtrace: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--train") {
      train_dataset = next("--train");
    } else if (arg == "--serve") {
      serve_dataset = next("--serve");
    } else if (arg == "--diff") {
      diff_a = next("--diff");
      diff_b = next("--diff");
    } else if (arg == "--episodes") {
      episodes = std::atoi(next("--episodes"));
    } else if (arg == "--constraint") {
      constraint_text = next("--constraint");
    } else if (arg == "--n") {
      n = std::atoi(next("--n"));
    } else if (arg == "--workers") {
      workers = std::atoi(next("--workers"));
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--scale") {
      scale = std::atof(next("--scale"));
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(std::atoll(next("--seed")));
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "lsgtrace: unknown flag %s\n\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  const int modes = (!train_dataset.empty() ? 1 : 0) +
                    (!serve_dataset.empty() ? 1 : 0) +
                    (!diff_a.empty() ? 1 : 0);
  if (modes != 1) {
    Usage();
    return 2;
  }
  if (!diff_a.empty()) return RunDiff(diff_a, diff_b);

  Constraint constraint = Constraint::Point(ConstraintMetric::kCardinality, 1);
  if (!ParseConstraint(constraint_text, &constraint)) {
    std::fprintf(stderr, "lsgtrace: bad --constraint \"%s\"\n",
                 constraint_text.c_str());
    return 2;
  }
  if (episodes <= 0 || n <= 0 || workers <= 0) {
    std::fprintf(stderr, "lsgtrace: --episodes/--n/--workers must be > 0\n");
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "lsgtrace: cannot create %s (%s)\n", out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  lsg::obs::SetEnabled(true);
  if (!train_dataset.empty()) {
    return RunTrain(train_dataset, constraint, episodes, n, scale, seed,
                    out_dir, csv);
  }
  return RunServe(serve_dataset, constraint, episodes, n, workers, scale,
                  seed, out_dir, csv);
}
