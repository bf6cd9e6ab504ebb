#include "baselines/random_generator.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "sql/render.h"

namespace lsg {

RandomGenerator::RandomGenerator(SqlGenEnvironment* env, uint64_t seed)
    : env_(env), rng_(seed) {
  LSG_CHECK(env != nullptr);
}

StatusOr<Trajectory> RandomGenerator::Rollout() {
  return RunEpisode(env_, [this](const ActionMask& mask) {
    return UniformAction(mask, &rng_);
  });
}

StatusOr<GenerationReport> RandomGenerator::GenerateSatisfied(
    int n, int64_t max_attempts) {
  GenerationReport report;
  Stopwatch watch;
  const Catalog& catalog = *env_->fsm().builder().catalog();
  while (report.satisfied < n && report.attempts < max_attempts) {
    auto traj = Rollout();
    if (!traj.ok()) return traj.status();
    ++report.attempts;
    if (!traj->satisfied) continue;
    ++report.satisfied;
    GeneratedQuery q;
    q.sql = RenderSql(traj->ast, catalog);
    q.metric = traj->final_metric;
    q.satisfied = true;
    q.features = FeaturesOf(traj->ast, static_cast<int>(traj->actions.size()));
    report.queries.push_back(std::move(q));
  }
  report.generate_seconds = watch.ElapsedSeconds();
  report.accuracy = report.attempts == 0
                        ? 0.0
                        : static_cast<double>(report.satisfied) /
                              static_cast<double>(report.attempts);
  return report;
}

StatusOr<GenerationReport> RandomGenerator::GenerateBatch(int n) {
  GenerationReport report;
  Stopwatch watch;
  for (int i = 0; i < n; ++i) {
    auto traj = Rollout();
    if (!traj.ok()) return traj.status();
    ++report.attempts;
    if (traj->satisfied) ++report.satisfied;
  }
  report.generate_seconds = watch.ElapsedSeconds();
  report.accuracy = report.attempts == 0
                        ? 0.0
                        : static_cast<double>(report.satisfied) /
                              static_cast<double>(report.attempts);
  return report;
}

}  // namespace lsg
