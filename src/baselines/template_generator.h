#ifndef LEARNEDSQLGEN_BASELINES_TEMPLATE_GENERATOR_H_
#define LEARNEDSQLGEN_BASELINES_TEMPLATE_GENERATOR_H_

#include <memory>
#include <vector>

#include "core/generator.h"

namespace lsg {

struct TemplateGeneratorOptions {
  /// Benchmark-provided SQL templates to seed the pool with (parsed via
  /// sql/parser; entries that fail to parse or expose no tweakable literal
  /// are skipped). The paper's Template baseline starts from "the provided
  /// templates of the three benchmarks" — see datasets/benchmark_templates.
  std::vector<std::string> seed_templates;

  /// Size of the template pool; seeds count toward it and random FSM walks
  /// mine the remainder (the paper's "reassembling the predicates").
  int num_templates = 24;
  uint64_t seed = 77;
};

/// Template baseline after Bruno et al. [10]: fixes a pool of query
/// structures ("templates") and greedily tweaks the predicate constants to
/// minimize the distance between the estimated metric and the target
/// constraint. Strengths and weaknesses mirror the paper's description:
/// fast when a template can reach the target, hopeless when none can
/// ("it can never reach 10⁸ by adjusting x because the table has fewer
/// rows" — §7.2.2).
class TemplateGenerator {
 public:
  /// Mines the template pool from random FSM walks over `env`'s grammar.
  TemplateGenerator(SqlGenEnvironment* env,
                    const TemplateGeneratorOptions& options);

  /// Hill-climbs until n satisfying queries are produced or max_attempts
  /// metric evaluations are spent.
  StatusOr<GenerationReport> GenerateSatisfied(int n, int64_t max_attempts);

  /// Runs n climbs and reports the fraction whose final query satisfies
  /// the constraint (accuracy mode).
  StatusOr<GenerationReport> GenerateBatch(int n);

  int pool_size() const { return static_cast<int>(templates_.size()); }

 private:
  struct Knob {
    // Location of a tweakable literal: which WHERE predicate (by index) of
    // the template's outer query / DML where-clause.
    int predicate_idx = -1;
    int table_idx = -1;
    int column_idx = -1;
    int value_pos = 0;  ///< current index into the column's value tokens
  };

  struct Template {
    QueryAst ast;
    std::vector<Knob> knobs;
  };

  /// Builds the pool (seed templates + mined walks); from the constructor.
  Status MinePool();

  /// Registers the tweakable literal predicates of a template as knobs;
  /// false if the template has none (it is then useless to the climber).
  bool ExtractKnobs(Template* tpl);

  /// One hill climb on a random template. Returns the final (best) metric
  /// and whether it satisfies the constraint; `evals` accumulates metric
  /// evaluations; the template's knob state is left at the optimum.
  StatusOr<bool> Climb(Template* tpl, double* best_metric, int64_t* evals,
                       int64_t eval_budget);

  /// Distance from metric to the constraint (0 when satisfied).
  double Distance(double metric) const;

  /// Writes a knob assignment into the template's AST.
  void ApplyKnobs(Template* tpl) const;

  WhereClause* MutableWhere(QueryAst* ast) const;

  SqlGenEnvironment* env_;
  TemplateGeneratorOptions options_;
  Rng rng_;
  std::vector<Template> templates_;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_BASELINES_TEMPLATE_GENERATOR_H_
