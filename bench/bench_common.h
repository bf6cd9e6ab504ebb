#ifndef LEARNEDSQLGEN_BENCH_BENCH_COMMON_H_
#define LEARNEDSQLGEN_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/random_generator.h"
#include "baselines/template_generator.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/generator.h"
#include "datasets/benchmark_templates.h"
#include "fuzz/test_databases.h"

namespace lsg {
namespace bench {

/// Experiment scale knobs, overridable from the environment so full and
/// quick runs share one binary:
///   LSG_N       queries per setting            (default 120)
///   LSG_EPOCHS  training epochs per constraint (default 250)
///   LSG_SCALE   dataset scale factor           (default 1.0)
///   LSG_QUICK   =1 shrinks everything ~4x for smoke runs
struct BenchConfig {
  int n = 120;
  int epochs = 250;
  double scale = 1.0;

  static BenchConfig FromEnv() {
    BenchConfig c;
    // NOLINTBEGIN(concurrency-mt-unsafe): single-threaded bench setup
    if (const char* v = std::getenv("LSG_N")) c.n = std::atoi(v);
    if (const char* v = std::getenv("LSG_EPOCHS")) c.epochs = std::atoi(v);
    if (const char* v = std::getenv("LSG_SCALE")) c.scale = std::atof(v);
    if (const char* v = std::getenv("LSG_QUICK"); v != nullptr && v[0] == '1') {
    // NOLINTEND(concurrency-mt-unsafe)
      c.n /= 4;
      c.epochs /= 4;
      if (c.n < 10) c.n = 10;
      if (c.epochs < 10) c.epochs = 10;
    }
    return c;
  }
};

/// The paper's three benchmarks.
inline std::vector<std::string> DatasetNames() {
  return {"TPC-H", "JOB", "XueTang"};
}

inline Database BuildDataset(const std::string& name, double scale) {
  auto db = BuildNamedDatabase(name, scale);
  LSG_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// One ready-to-use experiment context: database, its shared
/// DatabaseContext (further pipelines with the same vocabulary and profile
/// build over it in O(1)) and a pipeline facade.
struct DatasetContext {
  std::string name;
  Database db;
  std::shared_ptr<const DatabaseContext> context;
  std::unique_ptr<LearnedSqlGen> gen;
  MetricDomain card_domain;
  MetricDomain cost_domain;
};

inline LearnedSqlGenOptions DefaultOptions(const BenchConfig& cfg) {
  LearnedSqlGenOptions opts;
  opts.train_epochs = cfg.epochs;
  opts.trainer.batch_size = 16;
  return opts;
}

/// Builds a dataset context and probes the reachable metric domains used to
/// place the paper's constraint grids on scaled data.
inline DatasetContext MakeContext(const std::string& name,
                                  const BenchConfig& cfg,
                                  LearnedSqlGenOptions opts) {
  DatasetContext ctx;
  ctx.name = name;
  ctx.db = BuildDataset(name, cfg.scale);
  auto context = LearnedSqlGen::CreateContext(&ctx.db, opts);
  LSG_CHECK(context.ok()) << context.status().ToString();
  ctx.context = std::move(context).value();
  auto gen = LearnedSqlGen::Create(ctx.context, opts);
  LSG_CHECK(gen.ok()) << gen.status().ToString();
  ctx.gen = std::move(gen).value();

  EnvironmentOptions eo;
  eo.profile = opts.profile;
  Rng rng(7);
  {
    SqlGenEnvironment probe(
        *ctx.context, Constraint::Point(ConstraintMetric::kCardinality, 1), eo);
    ctx.card_domain = ProbeMetricDomain(&probe, 400, &rng, 0.2, 0.95);
  }
  {
    SqlGenEnvironment probe(
        *ctx.context, Constraint::Point(ConstraintMetric::kCost, 1), eo);
    ctx.cost_domain = ProbeMetricDomain(&probe, 400, &rng, 0.2, 0.95);
  }
  return ctx;
}

/// The paper's point grid: 4 geometric points across the reachable domain
/// (its 10², 10⁴, 10⁶, 10⁸ rescaled). The low end is floored at 5 — point
/// targets below that collapse into the empty/singleton-result noise.
inline std::vector<Constraint> PaperPointGrid(ConstraintMetric metric,
                                              const MetricDomain& domain) {
  MetricDomain d = domain;
  d.lo = std::max(5.0, d.lo);
  if (d.hi < d.lo * 2) d.hi = d.lo * 2;
  return PointGrid(metric, d, 4);
}

/// The paper's widening ranges ([1k,2k] .. [1k,8k] rescaled): the paper
/// anchors its ranges mid-scale (1k on databases whose results reach many
/// millions), so the base sits near the domain's geometric mean, clamped
/// so [base, 8·base] stays reachable.
inline std::vector<Constraint> PaperRangeGrid(ConstraintMetric metric,
                                              const MetricDomain& domain) {
  double base = std::sqrt(std::max(1.0, domain.lo) * domain.hi) / 2.0;
  base = std::max(base, 5.0);
  if (base * 8.0 > domain.hi) base = std::max(1.0, domain.hi / 8.0);
  return WideningRanges(metric, base);
}

/// A fresh environment for baselines or rollouts under constraint `c`.
inline std::unique_ptr<SqlGenEnvironment> MakeEnv(DatasetContext* ctx,
                                                  const Constraint& c,
                                                  QueryProfile profile) {
  EnvironmentOptions eo;
  eo.profile = profile;
  return std::make_unique<SqlGenEnvironment>(
      &ctx->db, &ctx->gen->vocab(), &ctx->gen->estimator(),
      &ctx->gen->cost_model(), c, eo);
}

// ------------------------------------------------------ json output

/// `--json OUT` support: benches that emit machine-readable rows mirror
/// them into OUT as one JSON array (stdout keeps the human stream).
/// Returns "" when the flag is absent.
inline std::string JsonOutPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

/// Collects JSON object rows and writes them as a single well-formed JSON
/// array on Flush()/destruction. Inert when constructed with an empty path,
/// so benches can call AddRow unconditionally.
class JsonRowWriter {
 public:
  explicit JsonRowWriter(std::string path) : path_(std::move(path)) {}
  ~JsonRowWriter() { Flush(); }

  void AddRow(std::string row) {
    if (!path_.empty()) rows_.push_back(std::move(row));
  }

  void Flush() {
    if (path_.empty() || flushed_) return;
    flushed_ = true;
    FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --json output %s\n", path_.c_str());
      return;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
  }

 private:
  std::string path_;
  std::vector<std::string> rows_;
  bool flushed_ = false;
};

// ------------------------------------------------------ result printing

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

struct ResultRow {
  std::string dataset;
  std::string setting;
  double sqlsmith = 0;
  double tmpl = 0;
  double learned = 0;
};

/// Prints the paper's three-series table plus the shape verdict (who wins
/// and by what factor).
inline void PrintSeries(const std::string& metric_name,
                        const std::vector<ResultRow>& rows,
                        bool lower_is_better) {
  std::printf("%-9s %-22s %12s %12s %14s %9s\n", "dataset", "setting",
              "SQLSmith", "Template", "LearnedSQLGen", "winner");
  int learned_wins = 0;
  for (const ResultRow& r : rows) {
    const char* winner = "Learned";
    bool lw = lower_is_better
                  ? (r.learned <= r.sqlsmith && r.learned <= r.tmpl)
                  : (r.learned >= r.sqlsmith && r.learned >= r.tmpl);
    if (!lw) {
      winner = lower_is_better ? (r.sqlsmith < r.tmpl ? "SQLSmith" : "Template")
                               : (r.sqlsmith > r.tmpl ? "SQLSmith" : "Template");
    } else {
      ++learned_wins;
    }
    std::printf("%-9s %-22s %12.4g %12.4g %14.4g %9s\n", r.dataset.c_str(),
                r.setting.c_str(), r.sqlsmith, r.tmpl, r.learned, winner);
  }
  std::printf("shape check [%s]: LearnedSQLGen wins %d / %zu settings\n",
              metric_name.c_str(), learned_wins, rows.size());
}

}  // namespace bench
}  // namespace lsg

#endif  // LEARNEDSQLGEN_BENCH_BENCH_COMMON_H_
