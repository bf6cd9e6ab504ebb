#include "core/batch_decoder.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/environment.h"
#include "sql/render.h"

namespace lsg {

void DecodeItem(const ServingSnapshot& snapshot, BatchDecodeItem* item) {
  LSG_CHECK(snapshot.context != nullptr && snapshot.actor != nullptr);
  const PolicyNetwork& actor = *snapshot.actor;
  item->status = Status::Ok();
  item->report = GenerationReport();
  GenerationReport& report = item->report;
  report.train_seconds = snapshot.train_seconds;
  SqlGenEnvironment env(*snapshot.context, item->constraint,
                        snapshot.env_opts);
  Stopwatch watch;
  PolicyNetwork::CompactDistribution dist;
  PolicyNetwork::Workspace ws;
  // A zero-work item (n <= 0) runs no attempt; otherwise the attempt
  // budget is checked only after an attempt, as in the satisfied loop.
  bool done = item->batch_mode ? report.attempts >= item->n
                               : report.satisfied >= item->n;
  while (!done) {
    env.Reset();
    PolicyNetwork::Episode ep = actor.BeginEpisode(/*train=*/false);
    EnvStepResult last;
    for (;;) {
      Status st = actor.Step(&ep, env.ValidActions().ids, /*dropout=*/nullptr,
                             &dist, &ws);
      if (!st.ok()) {
        item->status = std::move(st);
        return;
      }
      const int a = actor.SampleAction(dist, &item->rng);
      actor.RecordAction(&ep, a);
      auto sr = env.Step(a);
      if (!sr.ok()) {
        item->status = sr.status();
        return;
      }
      if (sr->done) {
        last = *sr;
        break;
      }
      if (static_cast<int>(ep.actions.size()) >= kMaxEpisodeSteps) {
        item->status = Status::Internal("episode exceeded the hard step cap");
        return;
      }
    }
    ++report.attempts;
    if (last.satisfied) ++report.satisfied;
    if (item->batch_mode || last.satisfied) {
      GeneratedQuery q;
      q.ast = env.TakeAst();
      q.sql = RenderSql(q.ast, snapshot.context->db()->catalog());
      q.metric = last.metric;
      q.satisfied = last.satisfied;
      q.features = FeaturesOf(q.ast, static_cast<int>(ep.actions.size()));
      report.queries.push_back(std::move(q));
    }
    done = item->batch_mode
               ? report.attempts >= item->n
               : (report.satisfied >= item->n ||
                  report.attempts >=
                      static_cast<int64_t>(item->n) * snapshot.attempts_factor);
  }
  report.generate_seconds = watch.ElapsedSeconds();
  report.accuracy = report.attempts == 0
                        ? 0.0
                        : static_cast<double>(report.satisfied) /
                              static_cast<double>(report.attempts);
}

}  // namespace lsg
