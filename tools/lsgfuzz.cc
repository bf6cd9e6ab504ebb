// lsgfuzz — deterministic fuzzing & differential-testing front end.
//
// Default mode drives randomized FSM episodes through the full oracle
// stack (FSM walk → lint → vectorized engine vs. nested-loop reference
// evaluator → Render → Parser re-parse → AST equivalence → estimator
// bounds → DML apply under snapshot/rollback) across the bundled datasets. Every
// failure is shrunk by delta-debugging and written to the corpus as a
// replayable trace file.
//
// Examples:
//   lsgfuzz --episodes 2000 --seed 7                 # all five datasets
//   lsgfuzz --dataset tpch --episodes 500 --corpus /tmp/lsg-corpus
//   lsgfuzz --replay /tmp/lsg-corpus/tpch-ep42-vexec.trace
//   lsgfuzz --service --rounds 6                     # fuzz the service
//
// That the oracles catch real engine defects is checked by building this
// program against mutant copies of the engine (tests/mutants/README.md):
// those runs must report violations.
//
// Exit status: 0 clean, 1 violations found, 2 usage error (a count below 1
// and a number that does not parse included).

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "fuzz/fuzzer.h"
#include "fuzz/service_fuzz.h"
#include "fuzz/test_databases.h"
#include "fuzz/trace.h"

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
      "  --dataset D      score|tpch|job|xuetang|edge|all (default all)\n"
      "  --scale F        synthetic dataset scale factor (default 0.05)\n"
      "  --values K       sampled values per column (default 8)\n"
      "  --corpus DIR     write failure artifacts here\n"
      "  --no-shrink      keep failing traces unminimized\n"
      "  --max-failures N stop a dataset after N failures (default 16)\n"
      "  --verbose        log every failure as it is found\n"
      "  --oracle NAME    all|vexec|serve-decode (default all). vexec runs\n"
      "                   only the vectorized-vs-reference lockstep check;\n"
      "                   serve-decode only the serving-vs-reference decode\n"
      "                   equivalence check\n"
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

  std::string dataset = "all", corpus_dir, replay_path;
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
  // A whole decimal number in [min, max]: a sign, a space, a trailing
  // character or an overflow is a usage error, so a typo never runs as 0.
  auto need_number = [&](int i, uint64_t min, uint64_t max) {
    const char* v = need_value(i);
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (*v < '0' || *v > '9' || errno != 0 || *end != '\0' || n < min ||
        n > max) {
      std::exit(FailUsage(("invalid value for " + std::string(argv[i]) +
                           ": '" + v + "' (a whole number in [" +
                           std::to_string(min) + ", " +
                           std::to_string(max) + "])")
                              .c_str()));
    }
    return static_cast<uint64_t>(n);
  };
  auto need_count = [&](int i) {
    return static_cast<int>(need_number(i, 1, INT_MAX));
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      Usage();
      return 0;
    } else if (a == "--episodes") {
      episodes = need_count(i++);
    } else if (a == "--seed") {
      seed = need_number(i++, 0, UINT64_MAX);
    } else if (a == "--dataset") {
      dataset = need_value(i++);
    } else if (a == "--scale") {
      scale = std::atof(need_value(i++));
    } else if (a == "--values") {
      values = need_count(i++);
    } else if (a == "--corpus") {
      corpus_dir = need_value(i++);
    } else if (a == "--no-shrink") {
      shrink = false;
    } else if (a == "--max-failures") {
      max_failures = need_count(i++);
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--oracle") {
      oracle_mode = need_value(i++);
    } else if (a == "--replay") {
      replay_path = need_value(i++);
    } else if (a == "--service") {
      service_mode = true;
    } else if (a == "--rounds") {
      rounds = need_count(i++);
    } else if (a == "--requests") {
      requests = need_count(i++);
    } else {
      return FailUsage(("unknown flag " + a).c_str());
    }
  }

  OracleOptions oracle;
  if (oracle_mode == "vexec") {
    // Focused lockstep mode: only the vectorized-vs-reference check runs
    // (plus the engine acceptance gate it depends on).
    oracle.check_lint = false;
    oracle.check_roundtrip = false;
    oracle.check_estimator = false;
    oracle.check_dml_apply = false;
    oracle.check_prefix_estimates = false;
    oracle.check_vexec = true;
    oracle.check_serve_decode = false;
  } else if (oracle_mode == "serve-decode") {
    // Focused serving-equivalence mode: only the serving-vs-reference decode
    // check runs (sampled once per 8 episodes, like the full stack).
    oracle.check_lint = false;
    oracle.check_roundtrip = false;
    oracle.check_estimator = false;
    oracle.check_dml_apply = false;
    oracle.check_prefix_estimates = false;
    oracle.check_vexec = false;
    oracle.check_serve_decode = true;
  } else if (oracle_mode != "all") {
    return FailUsage("unknown --oracle name");
  }

  // ------------------------------------------------------------ service
  if (service_mode) {
    ServiceFuzzOptions opts;
    opts.rounds = rounds;
    opts.requests_per_round = requests;
    opts.seed = seed;
    opts.scale = scale;
    opts.verbose = verbose;
    if (verbose) SetLogLevel(LogLevel::kInfo);  // the per-round lines
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
