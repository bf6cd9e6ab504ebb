// lsglint — static analysis front end: FSM state-graph verification and
// AST-level SQL semantic linting.
//
// `--fsm` exhaustively explores a dataset's GenerationFsm state graph under
// the fuzz profile rotation (small-scope clamped bounds) and reports dead
// states, stuck states, never-offered vocabulary tokens, and reachable
// semantic-rule violations. `--lint` checks SQL statements against the
// catalog-derived rule set; `--trace` lints the query rebuilt from an
// lsgfuzz-trace corpus artifact. `--check-all` runs the full matrix for CI.
//
// Examples:
//   lsglint --fsm tpch                      # all profiles, human summary
//   lsglint --fsm job --profile nested --json /tmp/job.json
//   lsglint --lint queries.sql --dataset tpch
//   lsglint --trace corpus/tpch-ep42-lint.trace
//   lsglint --check-all                     # CI gate over every dataset
//
// That the analyzer and the linter catch a gap in the FSM's masks is
// checked on mutant builds of the FSM (tests/mutants/README.md).
//
// Exit status: 0 clean, 1 findings, 2 usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fsm_analyzer.h"
#include "analysis/sql_linter.h"
#include "fuzz/fuzzer.h"
#include "fuzz/test_databases.h"
#include "fuzz/trace.h"
#include "sql/parser.h"
#include "sql/render.h"

namespace {

void Usage() {
  std::printf(
      "lsglint — FSM state-graph verifier + SQL semantic linter\n\n"
      "modes:\n"
      "  --fsm D          analyze the FSM graph for a dataset\n"
      "                   (score|tpch|job|xuetang|edge|all)\n"
      "  --lint FILE      lint SQL statements (one per line, # comments)\n"
      "  --trace FILE     lint the query from an lsgfuzz-trace artifact\n"
      "  --check-all      CI gate: every dataset x every profile\n"
      "options:\n"
      "  --profile NAME   restrict --fsm to one fuzz profile (default all)\n"
      "  --dataset D      dataset for --lint (default tpch)\n"
      "  --json PATH      write JSON report array to PATH\n"
      "  --values K       sampled values per column (default 6)\n"
      "  --scale F        synthetic dataset scale factor (default 0.05)\n"
      "  --max-states N   abstract-state budget (default 400000)\n"
      "  --verbose        print full per-profile summaries\n");
}

int FailUsage(const char* what) {
  std::fprintf(stderr, "%s (try --help)\n", what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lsg;

  std::string fsm_dataset, lint_path, trace_path, profile_name, json_path;
  std::string dataset = "tpch";
  bool check_all = false, verbose = false;
  int values = 6, max_states = 400000;
  double scale = 0.05;

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
    } else if (a == "--fsm") {
      fsm_dataset = need_value(i++);
    } else if (a == "--lint") {
      lint_path = need_value(i++);
    } else if (a == "--trace") {
      trace_path = need_value(i++);
    } else if (a == "--check-all") {
      check_all = true;
    } else if (a == "--profile") {
      profile_name = need_value(i++);
    } else if (a == "--dataset") {
      dataset = need_value(i++);
    } else if (a == "--json") {
      json_path = need_value(i++);
    } else if (a == "--values") {
      values = std::atoi(need_value(i++));
    } else if (a == "--scale") {
      scale = std::atof(need_value(i++));
    } else if (a == "--max-states") {
      max_states = std::atoi(need_value(i++));
    } else if (a == "--verbose" || a == "-v") {
      verbose = true;
    } else {
      return FailUsage(("unknown argument: " + a).c_str());
    }
  }

  auto build_db = [&](const std::string& name) {
    return BuildNamedDatabase(name, scale);
  };
  auto build_vocab = [&](const Database& db) {
    VocabularyOptions vo;
    vo.values_per_column = values;
    return Vocabulary::Build(db, vo);
  };

  // Runs the analyzer for one (db, profile); returns the report.
  auto analyze = [&](const Database& db, const Vocabulary& vocab,
                     const FuzzProfile& fp,
                     int budget = 0) -> StatusOr<FsmAnalysisReport> {
    AnalyzerOptions opts;
    opts.profile = fp.profile;
    opts.max_states = max_states;
    opts.budget_tokens = budget;
    FsmAnalyzer analyzer(&db, &vocab, opts);
    auto report = analyzer.Analyze();
    if (report.ok()) report.value().profile_name = fp.name;
    return report;
  };

  // --- lint a SQL file ---------------------------------------------------
  if (!lint_path.empty()) {
    auto db_or = build_db(dataset);
    if (!db_or.ok()) return FailUsage(db_or.status().ToString().c_str());
    const Database db = std::move(db_or).value();
    SqlLinter linter(&db.catalog());

    std::ifstream in(lint_path);
    if (!in) return FailUsage(("cannot open " + lint_path).c_str());
    std::string line;
    int lineno = 0, findings = 0, checked = 0;
    while (std::getline(in, line)) {
      ++lineno;
      size_t start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] == '#') continue;
      ++checked;
      auto ast = ParseSql(line, db.catalog());
      if (!ast.ok()) {
        ++findings;
        std::printf("%s:%d: parse-error: %s\n", lint_path.c_str(), lineno,
                    ast.status().ToString().c_str());
        continue;
      }
      for (const LintIssue& issue : linter.Lint(ast.value())) {
        ++findings;
        std::printf("%s:%d: %s: %s\n", lint_path.c_str(), lineno,
                    LintRuleName(issue.rule), issue.message.c_str());
      }
    }
    std::printf("%d statement(s) checked, %d finding(s)\n", checked,
                findings);
    return findings == 0 ? 0 : 1;
  }

  // --- lint the query rebuilt from a corpus trace -----------------------
  if (!trace_path.empty()) {
    auto trace_or = LoadTrace(trace_path);
    if (!trace_or.ok()) return FailUsage(trace_or.status().ToString().c_str());
    const EpisodeTrace trace = std::move(trace_or).value();
    auto db_or = BuildNamedDatabase(trace.dataset, trace.scale);
    if (!db_or.ok()) return FailUsage(db_or.status().ToString().c_str());
    const Database db = std::move(db_or).value();
    VocabularyOptions vo;
    vo.values_per_column = trace.values_per_column;
    auto vocab_or = Vocabulary::Build(db, vo);
    if (!vocab_or.ok()) return FailUsage(vocab_or.status().ToString().c_str());
    const Vocabulary vocab = std::move(vocab_or).value();
    if (trace.profile < 0 ||
        trace.profile >= static_cast<int>(FuzzProfiles().size())) {
      return FailUsage("trace references an unknown profile index");
    }
    GenerationFsm fsm(&db, &vocab, FuzzProfiles()[trace.profile].profile);
    bool exact = false;
    auto ast = ReplayActions(&fsm, trace.actions, &exact);
    if (!ast.ok()) return FailUsage(ast.status().ToString().c_str());
    SqlLinter linter(&db.catalog());
    std::vector<LintIssue> issues = linter.Lint(ast.value());
    std::printf("%s: replay %s, sql=%s\n", trace_path.c_str(),
                exact ? "exact" : "repaired",
                RenderSql(ast.value(), db.catalog()).c_str());
    for (const LintIssue& issue : issues) {
      std::printf("  %s: %s\n", LintRuleName(issue.rule),
                  issue.message.c_str());
    }
    std::printf("%zu finding(s)\n", issues.size());
    return issues.empty() ? 0 : 1;
  }

  // --- FSM graph analysis ------------------------------------------------
  if (fsm_dataset.empty() && !check_all) return FailUsage("no mode given");

  std::vector<std::string> datasets;
  if (check_all || fsm_dataset == "all") {
    datasets = FuzzDatasetNames();
  } else {
    datasets.push_back(fsm_dataset);
  }

  std::string json = "[";
  bool first_json = true;
  int defects = 0;
  for (const std::string& name : datasets) {
    auto db_or = build_db(name);
    if (!db_or.ok()) return FailUsage(db_or.status().ToString().c_str());
    const Database db = std::move(db_or).value();
    auto vocab_or = build_vocab(db);
    if (!vocab_or.ok()) return FailUsage(vocab_or.status().ToString().c_str());
    const Vocabulary vocab = std::move(vocab_or).value();

    // The run matrix: the fuzz-profile rotation under the structural
    // (unbounded-budget) regime, plus one tight-budget run so the
    // pruning boundary itself gets explored (see AnalyzerOptions).
    struct Run {
      FuzzProfile fp;
      int budget;
    };
    std::vector<Run> runs;
    for (const FuzzProfile& fp : FuzzProfiles()) runs.push_back({fp, 0});
    for (const FuzzProfile& fp : FuzzProfiles()) {
      if (fp.name == "full") {
        Run tight{fp, 16};
        tight.fp.name += "+tight16";
        runs.push_back(tight);
      }
    }

    // Token coverage is judged across the whole profile rotation: a token
    // unused by one profile (e.g. DML keywords in "default") must still be
    // offered somewhere.
    std::vector<uint8_t> coverage(vocab.size(), 0);
    bool ran_all_profiles = true;
    // Two runs with equal clamped profiles and budgets explore
    // byte-identical state graphs (e.g. "wide" clamps to the same bounds
    // as "default"), so the second is skipped.
    std::vector<std::pair<QueryProfile, int>> seen_profiles;
    for (const Run& run : runs) {
      const FuzzProfile& fp = run.fp;
      if (!profile_name.empty() && fp.name != profile_name) {
        if (run.budget == 0) ran_all_profiles = false;
        continue;
      }
      {
        AnalyzerOptions probe;
        probe.profile = fp.profile;
        FsmAnalyzer clamped(&db, &vocab, probe);
        const std::pair<QueryProfile, int> seen(clamped.effective_profile(),
                                                run.budget);
        if (std::find(seen_profiles.begin(), seen_profiles.end(), seen) !=
            seen_profiles.end()) {
          std::printf("%s/%s: clamps to an already-analyzed profile, "
                      "skipped\n",
                      name.c_str(), fp.name.c_str());
          continue;
        }
        seen_profiles.push_back(seen);
      }
      auto report_or = analyze(db, vocab, fp, run.budget);
      if (!report_or.ok()) {
        std::fprintf(stderr, "%s/%s: analysis failed: %s\n", name.c_str(),
                     fp.name.c_str(),
                     report_or.status().ToString().c_str());
        return 2;
      }
      FsmAnalysisReport& report = report_or.value();
      report.profile_name = name + "/" + fp.name;
      for (int id = 0; id < static_cast<int>(coverage.size()); ++id) {
        if (report.offered[id] != 0) coverage[id] = 1;
      }
      if (!report.Clean()) ++defects;
      if (verbose || !report.Clean()) {
        std::fputs(report.Summary(&vocab).c_str(), stdout);
      } else {
        std::printf(
            "%s: states=%d edges=%d accepting=%d dead=%d stuck=%d "
            "violations=%d\n",
            report.profile_name.c_str(), report.num_states,
            report.num_edges, report.num_accepting_edges, report.num_dead,
            report.num_stuck, report.num_violations);
      }
      if (!json_path.empty()) {
        if (!first_json) json += ",";
        json += report.ToJson();
        first_json = false;
      }
    }

    if (ran_all_profiles) {
      int never = 0;
      for (int id = 0; id < static_cast<int>(coverage.size()); ++id) {
        if (coverage[id] == 0) {
          if (never < 8) {
            std::printf("%s: token never offered in any profile: id=%d %s\n",
                        name.c_str(), id, vocab.token(id).text.c_str());
          }
          ++never;
        }
      }
      if (never > 0) {
        std::printf("%s: %d token(s) never offered across the rotation\n",
                    name.c_str(), never);
        ++defects;
      }
    }
  }
  json += "]";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) return FailUsage(("cannot write " + json_path).c_str());
    out << json << "\n";
  }
  if (defects == 0) {
    std::printf("OK: zero dead states, zero reachable violations\n");
    return 0;
  }
  std::printf("%d profile run(s) with defects\n", defects);
  return 1;
}
