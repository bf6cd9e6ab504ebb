// lsggen — command-line front end for LearnedSQLGen.
//
// Examples:
//   lsggen --dataset tpch --metric card --range 50,100 --n 10
//   lsggen --dataset job --metric cost --point 500 --epochs 400 --explain
//   lsggen --dataset xuetang --metric card --range 20,80 --profile delete
//   lsggen --dataset tpch --metric card --range 50,100 --csv out.csv --json out.json
//   lsggen --dataset tpch --metric card --range 50,100 --save model.bin
//   lsggen --dataset tpch --metric card --range 50,100 --load model.bin
//
// Run with --help for the full flag list.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/generator.h"
#include "core/report_io.h"
#include "fuzz/test_databases.h"
#include "optimizer/explain.h"

namespace {

void Usage() {
  std::printf(
      "lsggen — constraint-aware SQL generation (LearnedSQLGen)\n\n"
      "required:\n"
      "  --dataset score|tpch|job|xuetang|edge\n"
      "                               database to generate over\n"
      "  --metric card|cost           constrained metric\n"
      "  --point C | --range LO,HI    the constraint\n"
      "options:\n"
      "  --n N            satisfying queries to generate (default 10)\n"
      "  --epochs E       training epochs (default 300)\n"
      "  --batch B        episodes per update (default 16)\n"
      "  --scale F        dataset scale factor (default 1.0)\n"
      "  --seed S         training and sampling seed (default 2024)\n"
      "  --profile P      default|spj|full|insert|update|delete\n"
      "  --true-exec      reward from true execution, not the estimator\n"
      "  --explain        print an EXPLAIN plan per generated query\n"
      "  --csv PATH       write the generated workload as CSV\n"
      "  --json PATH      write the generated workload as JSON\n"
      "  --save PATH      save the trained model\n"
      "  --load PATH      load a model instead of training\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lsg;

  std::string dataset, metric_name, profile_name = "default";
  std::string csv_path, json_path, save_path, load_path;
  double point = -1, range_lo = -1, range_hi = -1, scale = 1.0;
  int n = 10, epochs = 300, batch = 16;
  uint64_t seed = 2024;
  bool true_exec = false, explain = false;

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
    } else if (a == "--metric") {
      metric_name = need_value(i++);
    } else if (a == "--point") {
      point = std::atof(need_value(i++));
    } else if (a == "--range") {
      const char* v = need_value(i++);
      if (std::sscanf(v, "%lf,%lf", &range_lo, &range_hi) != 2) {
        std::fprintf(stderr, "--range expects LO,HI\n");
        return 2;
      }
    } else if (a == "--n") {
      n = std::atoi(need_value(i++));
    } else if (a == "--epochs") {
      epochs = std::atoi(need_value(i++));
    } else if (a == "--batch") {
      batch = std::atoi(need_value(i++));
    } else if (a == "--scale") {
      scale = std::atof(need_value(i++));
    } else if (a == "--seed") {
      seed = std::strtoull(need_value(i++), nullptr, 10);
    } else if (a == "--profile") {
      profile_name = need_value(i++);
    } else if (a == "--csv") {
      csv_path = need_value(i++);
    } else if (a == "--json") {
      json_path = need_value(i++);
    } else if (a == "--save") {
      save_path = need_value(i++);
    } else if (a == "--load") {
      load_path = need_value(i++);
    } else if (a == "--true-exec") {
      true_exec = true;
    } else if (a == "--explain") {
      explain = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      return 2;
    }
  }

  if (dataset.empty() || metric_name.empty() ||
      (point < 0 && (range_lo < 0 || range_hi < 0))) {
    Usage();
    return 2;
  }

  auto db_or = BuildNamedDatabase(dataset, scale);
  if (!db_or.ok()) {
    std::fprintf(stderr, "%s\n", db_or.status().ToString().c_str());
    return 2;
  }
  Database db = std::move(db_or).value();

  ConstraintMetric metric;
  if (metric_name == "card") {
    metric = ConstraintMetric::kCardinality;
  } else if (metric_name == "cost") {
    metric = ConstraintMetric::kCost;
  } else {
    std::fprintf(stderr, "unknown metric %s\n", metric_name.c_str());
    return 2;
  }
  Constraint constraint = point >= 0
                              ? Constraint::Point(metric, point)
                              : Constraint::Range(metric, range_lo, range_hi);

  LearnedSqlGenOptions opts;
  opts.train_epochs = epochs;
  opts.trainer.batch_size = batch;
  opts.trainer.seed = seed;
  if (true_exec) opts.feedback = FeedbackSource::kTrueExecution;
  if (profile_name == "spj") {
    opts.profile = QueryProfile::SpjOnly();
  } else if (profile_name == "full") {
    opts.profile = QueryProfile::Full();
  } else if (profile_name == "insert") {
    opts.profile = QueryProfile::InsertOnly();
  } else if (profile_name == "update") {
    opts.profile = QueryProfile::UpdateOnly();
  } else if (profile_name == "delete") {
    opts.profile = QueryProfile::DeleteOnly();
  } else if (profile_name != "default") {
    std::fprintf(stderr, "unknown profile %s\n", profile_name.c_str());
    return 2;
  }

  auto gen = LearnedSqlGen::Create(&db, opts);
  if (!gen.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 gen.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "database %s: %zu tables, %zu rows; |A|=%d\n",
               dataset.c_str(), db.num_tables(), db.TotalRows(),
               (*gen)->vocab().size());

  Status st = load_path.empty() ? (*gen)->Train(constraint)
                                : (*gen)->LoadModel(constraint, load_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n",
                 load_path.empty() ? "train" : "load", st.ToString().c_str());
    return 1;
  }
  if (load_path.empty()) {
    std::fprintf(stderr, "trained %d epochs in %.2fs for %s\n", epochs,
                 (*gen)->last_train_seconds(),
                 constraint.ToString().c_str());
  }
  if (!save_path.empty()) {
    if (Status s = (*gen)->SaveModel(save_path); !s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "model saved to %s\n", save_path.c_str());
  }

  auto report = (*gen)->GenerateSatisfied(n);
  if (!report.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "%d satisfying queries in %d attempts (%.2fs inference)\n",
               report->satisfied, report->attempts,
               report->generate_seconds);
  for (const GeneratedQuery& q : report->queries) {
    if (explain) {
      std::printf("%s\n", Explain(q.ast, db.catalog(), (*gen)->estimator(),
                                  (*gen)->cost_model())
                              .c_str());
    } else {
      std::printf("%.4g\t%s\n", q.metric, q.sql.c_str());
    }
  }

  if (!csv_path.empty()) {
    if (Status s = WriteReportCsv(*report, csv_path); !s.ok()) {
      std::fprintf(stderr, "csv write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "workload written to %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    if (Status s = WriteReportJson(*report, json_path); !s.ok()) {
      std::fprintf(stderr, "json write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "workload written to %s\n", json_path.c_str());
  }
  return 0;
}
