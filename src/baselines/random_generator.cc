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
  env_->Reset();
  Trajectory traj;
  for (int step = 0; step < kMaxEpisodeSteps; ++step) {
    const std::vector<uint8_t>& mask = env_->ValidActions().bytes;
    int chosen = -1;
    int seen = 0;
    for (size_t i = 0; i < mask.size(); ++i) {
      if (!mask[i]) continue;
      ++seen;
      if (rng_.Uniform(seen) == 0) chosen = static_cast<int>(i);
    }
    if (chosen < 0) return Status::Internal("empty FSM mask");
    auto sr = env_->Step(chosen);
    if (!sr.ok()) return sr.status();
    traj.actions.push_back(chosen);
    traj.rewards.push_back(sr->reward);
    if (sr->done) {
      traj.completed = true;
      traj.satisfied = sr->satisfied;
      traj.final_metric = sr->metric;
      traj.ast = env_->TakeAst();
      return traj;
    }
  }
  return Status::Internal("random rollout exceeded step cap");
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
