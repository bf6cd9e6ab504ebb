#include "baselines/template_generator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "sql/parser.h"
#include "sql/render.h"

namespace lsg {
namespace {

/// Hill-climbing iterations per climb before giving up on a template.
constexpr int kMaxClimbIters = 64;
/// Neighbor step sizes tried per knob (indices into the sorted value list
/// of the predicate's column).
constexpr int kStepSizes[] = {1, 4, 16};

}  // namespace

TemplateGenerator::TemplateGenerator(SqlGenEnvironment* env,
                                     const TemplateGeneratorOptions& options)
    : env_(env), options_(options), rng_(options.seed) {
  LSG_CHECK(env != nullptr);
  LSG_CHECK_OK(MinePool());
}

WhereClause* TemplateGenerator::MutableWhere(QueryAst* ast) const {
  switch (ast->type) {
    case QueryType::kSelect:
      return ast->select != nullptr ? &ast->select->where : nullptr;
    case QueryType::kUpdate:
      return ast->update != nullptr ? &ast->update->where : nullptr;
    case QueryType::kDelete:
      return ast->del != nullptr ? &ast->del->where : nullptr;
    case QueryType::kInsert:
      return ast->insert != nullptr && ast->insert->source != nullptr
                 ? &ast->insert->source->where
                 : nullptr;
  }
  return nullptr;
}

Status TemplateGenerator::MinePool() {
  // 1. Benchmark-provided seed templates (parsed from SQL text).
  const Catalog& catalog = *env_->fsm().builder().catalog();
  for (const std::string& sql : options_.seed_templates) {
    auto ast = ParseSql(sql, catalog);
    if (!ast.ok()) {
      LSG_LOG(Warning) << "seed template skipped (" << ast.status().ToString()
                       << "): " << sql;
      continue;
    }
    Template tpl;
    tpl.ast = std::move(ast).value();
    if (!ExtractKnobs(&tpl)) continue;
    templates_.push_back(std::move(tpl));
    if (static_cast<int>(templates_.size()) >= options_.num_templates) break;
  }

  // 2. Random FSM walks mine the remainder; keep structures that expose at
  // least one tweakable literal predicate.
  const int kMaxMiningWalks = options_.num_templates * 20;
  for (int walk = 0;
       walk < kMaxMiningWalks &&
       static_cast<int>(templates_.size()) < options_.num_templates;
       ++walk) {
    // A walk that fails (an empty mask, a failed step, the step cap) is
    // skipped, like one that mines no knob.
    auto walk_traj = RunEpisode(env_, [this](const ActionMask& mask) {
      return UniformAction(mask, &rng_);
    });
    if (!walk_traj.ok()) continue;
    Template tpl;
    tpl.ast = std::move(walk_traj->ast);
    if (!ExtractKnobs(&tpl)) continue;
    templates_.push_back(std::move(tpl));
  }
  if (templates_.empty()) {
    return Status::FailedPrecondition(
        "template mining produced no tweakable templates");
  }
  return Status::Ok();
}

bool TemplateGenerator::ExtractKnobs(Template* tpl) {
  WhereClause* where = MutableWhere(&tpl->ast);
  if (where == nullptr || where->empty()) return false;
  for (size_t i = 0; i < where->predicates.size(); ++i) {
    const Predicate& p = where->predicates[i];
    if (p.kind != PredicateKind::kValue) continue;
    const std::vector<int>& values = env_->fsm().vocab().value_token_ids(
        p.column.table_idx, p.column.column_idx);
    if (values.empty()) continue;
    Knob k;
    k.predicate_idx = static_cast<int>(i);
    k.table_idx = p.column.table_idx;
    k.column_idx = p.column.column_idx;
    k.value_pos = static_cast<int>(rng_.Uniform(values.size()));
    tpl->knobs.push_back(k);
  }
  return !tpl->knobs.empty();
}

double TemplateGenerator::Distance(double metric) const {
  const Constraint& c = env_->constraint();
  const double m = std::max(metric, 0.5);
  if (c.kind == ConstraintKind::kPoint) {
    return std::abs(std::log(m / std::max(c.point, 0.5)));
  }
  if (metric >= c.lo && metric <= c.hi) return 0.0;
  double dl = std::abs(std::log(m / std::max(c.lo, 0.5)));
  double dr = std::abs(std::log(m / std::max(c.hi, 0.5)));
  return std::min(dl, dr);
}

void TemplateGenerator::ApplyKnobs(Template* tpl) const {
  WhereClause* where = MutableWhere(&tpl->ast);
  LSG_CHECK(where != nullptr);
  const Vocabulary& vocab = env_->fsm().vocab();
  for (const Knob& k : tpl->knobs) {
    const std::vector<int>& values =
        vocab.value_token_ids(k.table_idx, k.column_idx);
    int pos = std::clamp(k.value_pos, 0,
                         static_cast<int>(values.size()) - 1);
    where->predicates[k.predicate_idx].value = vocab.token(values[pos]).value;
  }
}

StatusOr<bool> TemplateGenerator::Climb(Template* tpl, double* best_metric,
                                        int64_t* evals, int64_t eval_budget) {
  const Vocabulary& vocab = env_->fsm().vocab();
  // Random restart of the knob positions.
  for (Knob& k : tpl->knobs) {
    const std::vector<int>& values =
        vocab.value_token_ids(k.table_idx, k.column_idx);
    k.value_pos = static_cast<int>(rng_.Uniform(values.size()));
  }
  ApplyKnobs(tpl);
  double metric = env_->MetricOf(tpl->ast);
  ++*evals;
  double best_dist = Distance(metric);
  *best_metric = metric;

  for (int iter = 0; iter < kMaxClimbIters; ++iter) {
    if (best_dist == 0.0) return true;
    if (*evals >= eval_budget) return false;
    bool improved = false;
    for (size_t ki = 0; ki < tpl->knobs.size(); ++ki) {
      Knob& k = tpl->knobs[ki];
      const int n_values = static_cast<int>(
          vocab.value_token_ids(k.table_idx, k.column_idx).size());
      const int original = k.value_pos;
      int best_pos = original;
      for (int step : kStepSizes) {
        for (int dir : {-1, 1}) {
          int pos = original + dir * step;
          if (pos < 0 || pos >= n_values || pos == original) continue;
          k.value_pos = pos;
          ApplyKnobs(tpl);
          double m = env_->MetricOf(tpl->ast);
          ++*evals;
          double d = Distance(m);
          if (d < best_dist) {
            best_dist = d;
            best_pos = pos;
            *best_metric = m;
            improved = true;
          }
          if (*evals >= eval_budget) break;
        }
        if (*evals >= eval_budget) break;
      }
      k.value_pos = best_pos;
      if (*evals >= eval_budget) break;
    }
    ApplyKnobs(tpl);
    if (!improved) break;
  }
  return best_dist == 0.0;
}

StatusOr<GenerationReport> TemplateGenerator::GenerateSatisfied(
    int n, int64_t max_attempts) {
  GenerationReport report;
  Stopwatch watch;
  const Catalog& catalog = *env_->fsm().builder().catalog();
  int64_t evals = 0;
  while (report.satisfied < n && evals < max_attempts) {
    Template& tpl = templates_[rng_.Uniform(templates_.size())];
    double metric = 0.0;
    auto ok = Climb(&tpl, &metric, &evals, max_attempts);
    if (!ok.ok()) return ok.status();
    ++report.attempts;
    if (!*ok) continue;
    ++report.satisfied;
    GeneratedQuery q;
    q.sql = RenderSql(tpl.ast, catalog);
    q.metric = metric;
    q.satisfied = true;
    q.features = FeaturesOf(tpl.ast, /*num_tokens=*/0);
    report.queries.push_back(std::move(q));
  }
  report.attempts = static_cast<int>(evals);
  report.generate_seconds = watch.ElapsedSeconds();
  report.accuracy = evals == 0 ? 0.0
                               : static_cast<double>(report.satisfied) /
                                     static_cast<double>(evals);
  return report;
}

StatusOr<GenerationReport> TemplateGenerator::GenerateBatch(int n) {
  GenerationReport report;
  Stopwatch watch;
  int64_t evals = 0;
  for (int i = 0; i < n; ++i) {
    Template& tpl = templates_[rng_.Uniform(templates_.size())];
    double metric = 0.0;
    // Per-climb budget keeps each generated query's work bounded.
    int64_t budget = evals + kMaxClimbIters * 8;
    auto ok = Climb(&tpl, &metric, &evals, budget);
    if (!ok.ok()) return ok.status();
    ++report.attempts;
    if (*ok) ++report.satisfied;
  }
  report.generate_seconds = watch.ElapsedSeconds();
  report.accuracy = report.attempts == 0
                        ? 0.0
                        : static_cast<double>(report.satisfied) /
                              static_cast<double>(report.attempts);
  return report;
}

}  // namespace lsg
