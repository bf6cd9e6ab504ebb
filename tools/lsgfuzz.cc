// lsgfuzz — deterministic fuzzing & differential-testing front end.
//
// Default mode drives randomized FSM episodes through the full oracle
// stack (FSM walk → Render → Parser re-parse → AST equivalence →
// optimized Executor vs. naive reference evaluator → estimator bounds →
// DML apply under snapshot/rollback) across the bundled datasets. Every
// failure is shrunk by delta-debugging and written to the corpus as a
// replayable trace file.
//
// Examples:
//   lsgfuzz --episodes 2000 --seed 7                 # all four datasets
//   lsgfuzz --dataset tpch --episodes 500 --corpus /tmp/lsg-corpus
//   lsgfuzz --replay /tmp/lsg-corpus/tpch-ep42-exec-vs-ref.trace
//   lsgfuzz --service --rounds 6                     # fuzz the service
//   lsgfuzz --episodes 50 --inject-bug card-off-by-one   # harness check
//
// Exit status: 0 clean, 1 violations found, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"
#include "fuzz/service_fuzz.h"
#include "fuzz/test_databases.h"
#include "fuzz/trace.h"
#include "vexec/vectorized_engine.h"

namespace {

void Usage() {
  std::printf(
      "lsgfuzz — deterministic fuzzing & differential-oracle harness\n\n"
      "modes (default: fuzz):\n"
      "  --replay PATH    replay one corpus trace deterministically\n"
      "  --service        fuzz the concurrent generation service\n"
      "fuzz options:\n"
      "  --episodes N     episodes per dataset (default 1000)\n"
      "  --seed S         base RNG seed (default 7)\n"
      "  --dataset D      score|tpch|job|xuetang|all (default all)\n"
      "  --scale F        synthetic dataset scale factor (default 0.05)\n"
      "  --values K       sampled values per column (default 8)\n"
      "  --corpus DIR     write failure artifacts here\n"
      "  --no-shrink      keep failing traces unminimized\n"
      "  --max-failures N stop a dataset after N failures (default 16)\n"
      "  --verbose        log every failure as it is found\n"
      "  --oracle NAME    all|vexec|serve-decode (default all). vexec runs\n"
      "                   only the vectorized-vs-reference lockstep check;\n"
      "                   serve-decode only the serving-vs-rollout decode\n"
      "                   equivalence check\n"
      "  --inject-bug K   card-off-by-one|render-space|hash-collision|\n"
      "                   sel-vector-off-by-one (mutation-tests the\n"
      "                   harness: the run MUST report violations)\n"
      "service options:\n"
      "  --rounds N       service lifecycles (default 4)\n"
      "  --requests N     requests per round (default 16)\n");
}

int FailUsage(const char* what) {
  std::fprintf(stderr, "%s (try --help)\n", what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lsg;

  std::string dataset = "all", corpus_dir, replay_path, inject;
  std::string oracle_mode = "all";
  int episodes = 1000, max_failures = 16, values = 8;
  int rounds = 4, requests = 16;
  uint64_t seed = 7;
  double scale = 0.05;
  bool shrink = true, verbose = false, service_mode = false;

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
    } else if (a == "--episodes") {
      episodes = std::atoi(need_value(i++));
    } else if (a == "--seed") {
      seed = std::strtoull(need_value(i++), nullptr, 10);
    } else if (a == "--dataset") {
      dataset = need_value(i++);
    } else if (a == "--scale") {
      scale = std::atof(need_value(i++));
    } else if (a == "--values") {
      values = std::atoi(need_value(i++));
    } else if (a == "--corpus") {
      corpus_dir = need_value(i++);
    } else if (a == "--no-shrink") {
      shrink = false;
    } else if (a == "--max-failures") {
      max_failures = std::atoi(need_value(i++));
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--inject-bug") {
      inject = need_value(i++);
    } else if (a == "--oracle") {
      oracle_mode = need_value(i++);
    } else if (a == "--replay") {
      replay_path = need_value(i++);
    } else if (a == "--service") {
      service_mode = true;
    } else if (a == "--rounds") {
      rounds = std::atoi(need_value(i++));
    } else if (a == "--requests") {
      requests = std::atoi(need_value(i++));
    } else {
      return FailUsage(("unknown flag " + a).c_str());
    }
  }

  OracleOptions oracle;
  if (oracle_mode == "vexec") {
    // Focused lockstep mode: only the vectorized-vs-reference check runs
    // (plus the executor acceptance gate it depends on).
    oracle.check_lint = false;
    oracle.check_reference = false;
    oracle.check_roundtrip = false;
    oracle.check_estimator = false;
    oracle.check_dml_apply = false;
    oracle.check_prefix_estimates = false;
    oracle.check_vexec = true;
    oracle.check_serve_decode = false;
  } else if (oracle_mode == "serve-decode") {
    // Focused serving-equivalence mode: only the serving-vs-rollout decode
    // check runs (sampled once per 8 episodes, like the full stack).
    oracle.check_lint = false;
    oracle.check_reference = false;
    oracle.check_roundtrip = false;
    oracle.check_estimator = false;
    oracle.check_dml_apply = false;
    oracle.check_prefix_estimates = false;
    oracle.check_vexec = false;
    oracle.check_serve_decode = true;
  } else if (oracle_mode != "all") {
    return FailUsage("unknown --oracle name");
  }
  if (inject == "card-off-by-one") {
    oracle.inject_card_offset = 1;
  } else if (inject == "render-space") {
    oracle.inject_render_space = true;
  } else if (inject == "hash-collision" || inject == "sel-vector-off-by-one") {
    oracle.inject_vexec_bug = vexec::ParseInjectBug(inject);
  } else if (!inject.empty()) {
    return FailUsage("unknown --inject-bug kind");
  }

  // ------------------------------------------------------------ service
  if (service_mode) {
    ServiceFuzzOptions opts;
    opts.rounds = rounds;
    opts.requests_per_round = requests;
    opts.seed = seed;
    opts.scale = scale;
    opts.verbose = verbose;
    Status st = FuzzGenerationService(opts);
    if (!st.ok()) {
      std::fprintf(stderr, "service fuzz FAILED: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("service fuzz clean: %d rounds x %d requests\n", rounds,
                requests);
    return 0;
  }

  // ------------------------------------------------------------- replay
  if (!replay_path.empty()) {
    auto trace = LoadTrace(replay_path);
    if (!trace.ok()) {
      return FailUsage(trace.status().ToString().c_str());
    }
    auto rerun = ReplayTraceEpisode(*trace, oracle);
    if (!rerun.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   rerun.status().ToString().c_str());
      return 2;
    }
    std::printf("dataset=%s profile=%d actions=%zu\nsql=%s\n",
                rerun->dataset.c_str(), rerun->profile,
                rerun->actions.size(), rerun->sql.c_str());
    if (rerun->oracle.empty()) {
      std::printf("replay clean: no oracle violation\n");
      return trace->oracle.empty() ? 0 : 1;  // recorded failure vanished
    }
    std::printf("violation [%s] %s\n", rerun->oracle.c_str(),
                rerun->detail.c_str());
    if (!trace->oracle.empty() && trace->oracle != rerun->oracle) {
      std::printf("note: recorded oracle was [%s]\n", trace->oracle.c_str());
    }
    return 1;
  }

  // --------------------------------------------------------------- fuzz
  FuzzOptions opts;
  if (dataset != "all") opts.datasets = {dataset};
  opts.episodes = episodes;
  opts.seed = seed;
  opts.scale = scale;
  opts.values_per_column = values;
  opts.corpus_dir = corpus_dir;
  opts.shrink = shrink;
  opts.max_failures = max_failures;
  opts.verbose = verbose;
  opts.oracle = oracle;

  auto stats = RunFuzz(opts);
  if (!stats.ok()) {
    std::fprintf(stderr, "fuzz run failed: %s\n",
                 stats.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", stats->ToString().c_str());
  for (const auto& f : stats->failures) {
    std::printf("violation [%s] %s ep=%llu actions=%zu\n  %s\n  sql=%s\n",
                f.oracle.c_str(), f.dataset.c_str(),
                static_cast<unsigned long long>(f.episode),
                f.actions.size(), f.detail.c_str(), f.sql.c_str());
  }
  if (!stats->failures.empty() && !corpus_dir.empty()) {
    std::printf("replay artifacts written under %s\n", corpus_dir.c_str());
  }
  return stats->failures.empty() ? 0 : 1;
}
