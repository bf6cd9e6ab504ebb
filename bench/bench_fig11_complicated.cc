// Reproduces Figure 11: time to generate growing numbers of complicated
// queries (nested / insert / delete) satisfying cost constraints on TPC-H.
// The FSM profile is switched per query type, demonstrating the paper's
// claim that the extendable FSM makes LearnedSQLGen applicable to varied
// complicated SQL.
#include "bench/bench_common.h"

namespace lsg {
namespace bench {
namespace {

struct TypeCase {
  const char* name;
  QueryProfile profile;
  QueryType type;
  bool require_nested;
};

void Run() {
  BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader(StrFormat("Figure 11: complicated-query generation time "
                        "(TPC-H, epochs=%d)", cfg.epochs));
  LearnedSqlGenOptions base = DefaultOptions(cfg);
  DatasetContext ctx = MakeContext("TPC-H", cfg, base);

  QueryProfile nested_profile;
  nested_profile.max_nesting_depth = 2;
  nested_profile.require_nested = true;
  QueryProfile insert_profile = QueryProfile::InsertOnly();
  QueryProfile delete_profile = QueryProfile::DeleteOnly();
  const TypeCase cases[] = {
      {"NESTED", nested_profile, QueryType::kSelect, true},
      {"INSERT", insert_profile, QueryType::kInsert, false},
      {"DELETE", delete_profile, QueryType::kDelete, false},
  };

  const std::vector<int> counts = {10, 40, 70, 100};

  for (const TypeCase& tc : cases) {
    LearnedSqlGenOptions opts = base;
    opts.profile = tc.profile;
    // Re-probe the cost domain under this profile (DML costs differ).
    DatasetContext tctx = MakeContext("TPC-H", cfg, opts);
    std::vector<Constraint> constraints = {
        Constraint::Point(ConstraintMetric::kCost,
                          GeometricGrid(tctx.cost_domain.lo,
                                        tctx.cost_domain.hi, 3)[1]),
        PaperRangeGrid(ConstraintMetric::kCost, tctx.cost_domain)[1],
    };
    for (const Constraint& c : constraints) {
      LSG_CHECK_OK(tctx.gen->Train(c));
      std::printf("%-7s %-22s:", tc.name, c.ToString().c_str());
      Stopwatch watch;
      int have = 0;
      int64_t attempts = 0;
      const int64_t max_attempts = 40000;
      size_t next = 0;
      while (next < counts.size() && attempts < max_attempts) {
        // Generate one query; count it if it is a satisfied query of the
        // requested complicated type.
        auto rep = tctx.gen->GenerateBatch(1);
        LSG_CHECK(rep.ok());
        ++attempts;
        const GeneratedQuery& q = rep->queries[0];
        bool type_ok = q.features.type == tc.type &&
                       (!tc.require_nested || q.features.nested);
        if (q.satisfied && type_ok) ++have;
        while (next < counts.size() && have >= counts[next]) {
          std::printf("  %d:%6.2fs", counts[next],
                      tctx.gen->last_train_seconds() + watch.ElapsedSeconds());
          ++next;
        }
      }
      while (next < counts.size()) {
        std::printf("  %d:   n/a", counts[next]);
        ++next;
      }
      std::printf("   (attempts %lld)\n", static_cast<long long>(attempts));
      std::fflush(stdout);
    }
  }
  std::printf("shape check: per-type time grows roughly linearly with the "
              "requested count (paper Figure 11)\n");
}

}  // namespace
}  // namespace bench
}  // namespace lsg

int main() {
  lsg::bench::Run();
  return 0;
}
