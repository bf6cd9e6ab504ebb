#include "core/decode.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/environment.h"
#include "sql/render.h"

namespace lsg {

StatusOr<GenerationReport> Decode(const ServingSnapshot& snapshot,
                                  const Constraint& constraint, int n,
                                  bool batch, Rng* rng) {
  LSG_CHECK(snapshot.context != nullptr && snapshot.actor != nullptr);
  const PolicyNetwork& actor = *snapshot.actor;
  GenerationReport report;
  report.train_seconds = snapshot.train_seconds;
  SqlGenEnvironment env(*snapshot.context, constraint, snapshot.env_opts);
  Stopwatch watch;
  PolicyNetwork::Workspace ws;
  // Distribution storage, handed from attempt to attempt.
  std::vector<PolicyNetwork::CompactDistribution> dists;
  const int64_t budget = static_cast<int64_t>(n) * snapshot.attempts_factor;
  // The attempt budget is checked only after an attempt.
  bool done = batch ? report.attempts >= n : report.satisfied >= n;
  while (!done) {
    PolicyNetwork::Episode ep = actor.BeginEpisode(/*train=*/false);
    ep.dists.swap(dists);
    LSG_ASSIGN_OR_RETURN(
        Trajectory traj,
        RolloutPolicy(&env, actor, &ep, /*dropout=*/nullptr, &ws, rng));
    dists.swap(ep.dists);
    ++report.attempts;
    if (traj.satisfied) ++report.satisfied;
    if (batch || traj.satisfied) {
      GeneratedQuery q;
      q.ast = std::move(traj.ast);
      q.sql = RenderSql(q.ast, snapshot.context->db()->catalog());
      q.metric = traj.final_metric;
      q.satisfied = traj.satisfied;
      q.features = FeaturesOf(q.ast, static_cast<int>(traj.actions.size()));
      report.queries.push_back(std::move(q));
    }
    done = batch ? report.attempts >= n
                 : (report.satisfied >= n || report.attempts >= budget);
  }
  report.generate_seconds = watch.ElapsedSeconds();
  report.accuracy = report.attempts == 0
                        ? 0.0
                        : static_cast<double>(report.satisfied) /
                              static_cast<double>(report.attempts);
  return report;
}

}  // namespace lsg
