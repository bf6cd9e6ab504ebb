#include "core/batch_decoder.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/environment.h"
#include "sql/render.h"

namespace lsg {

struct BatchDecoder::Lane {
  BatchDecodeItem* item;
  std::unique_ptr<SqlGenEnvironment> env;
  PolicyNetwork::Episode ep;
  Trajectory traj;
  int ep_steps = 0;
  Stopwatch watch;

  Lane(BatchDecodeItem* it, std::unique_ptr<SqlGenEnvironment> e)
      : item(it), env(std::move(e)) {}
};

BatchDecoder::BatchDecoder(const ServingSnapshot* snapshot, int max_lanes)
    : snap_(snapshot), max_lanes_(std::max(1, max_lanes)) {
  LSG_CHECK(snapshot != nullptr && snapshot->context != nullptr &&
            snapshot->actor != nullptr);
}

void BatchDecoder::BeginAttempt(const PolicyNetwork& actor, Lane* lane) {
  lane->env->Reset();
  lane->ep = actor.BeginEpisode(/*train=*/false);
  lane->traj = Trajectory();
  lane->ep_steps = 0;
}

void BatchDecoder::FinishItem(Lane* lane) {
  GenerationReport& report = lane->item->report;
  report.generate_seconds = lane->watch.ElapsedSeconds();
  report.accuracy = report.attempts == 0
                        ? 0.0
                        : static_cast<double>(report.satisfied) /
                              static_cast<double>(report.attempts);
}

std::unique_ptr<BatchDecoder::Lane> BatchDecoder::StartItem(
    BatchDecodeItem* item) {
  item->status = Status::Ok();
  item->report = GenerationReport();
  item->report.train_seconds = snap_->train_seconds;
  auto env = std::make_unique<SqlGenEnvironment>(
      *snap_->context, item->constraint, snap_->env_opts);
  auto lane = std::make_unique<Lane>(item, std::move(env));
  // Zero-work items (n <= 0) finish before their first episode, exactly
  // like the sequential loops whose conditions never admit an attempt.
  const bool done = item->batch_mode
                        ? item->report.attempts >= item->n
                        : item->report.satisfied >= item->n;
  if (done) {
    FinishItem(lane.get());
    return nullptr;
  }
  BeginAttempt(*snap_->actor, lane.get());
  return lane;
}

BatchDecoder::Stats BatchDecoder::Run(
    const std::vector<BatchDecodeItem*>& items) {
  Stats stats;
  const PolicyNetwork& actor = *snap_->actor;
  std::vector<std::unique_ptr<Lane>> lanes;
  size_t next_item = 0;
  auto admit = [&]() {
    while (static_cast<int>(lanes.size()) < max_lanes_ &&
           next_item < items.size()) {
      std::unique_ptr<Lane> lane = StartItem(items[next_item]);
      ++next_item;
      if (lane != nullptr) lanes.push_back(std::move(lane));
    }
  };
  admit();

  std::vector<PolicyNetwork::Episode*> eps;
  std::vector<const std::vector<int>*> admitted;
  // Per-slot compact distributions, reused across steps so the idx/probs
  // capacity survives lane churn (slots are overwritten every step).
  std::vector<PolicyNetwork::CompactDistribution> dists;
  std::vector<Status> statuses;
  PolicyNetwork::Workspace ws;
  while (!lanes.empty()) {
    const int batch = static_cast<int>(lanes.size());
    eps.resize(batch);
    admitted.resize(batch);
    if (dists.size() < static_cast<size_t>(batch)) dists.resize(batch);
    statuses.assign(batch, Status::Ok());
    for (int b = 0; b < batch; ++b) {
      eps[b] = &lanes[b]->ep;
      admitted[b] = &lanes[b]->env->ValidActions().ids;
    }
    actor.StepBatch(eps.data(), admitted.data(), batch, dists.data(),
                    statuses.data(), &ws);
    stats.steps += 1;
    stats.lane_steps += static_cast<uint64_t>(batch);
    stats.peak_lanes = std::max(stats.peak_lanes, batch);

    // Advance every lane one action; collect retirements.
    std::vector<bool> retire(batch, false);
    for (int b = 0; b < batch; ++b) {
      Lane& lane = *lanes[b];
      BatchDecodeItem& item = *lane.item;
      if (!statuses[b].ok()) {
        item.status = statuses[b];
        retire[b] = true;
        continue;
      }
      const int a = actor.SampleAction(dists[b], &item.rng);
      actor.RecordAction(&lane.ep, a);
      auto sr = lane.env->Step(a);
      if (!sr.ok()) {
        item.status = sr.status();
        retire[b] = true;
        continue;
      }
      lane.traj.actions.push_back(a);
      lane.traj.rewards.push_back(sr->reward);
      ++lane.ep_steps;
      if (sr->done) {
        lane.traj.completed = true;
        lane.traj.satisfied = sr->satisfied;
        lane.traj.final_metric = sr->metric;
        lane.traj.ast = lane.env->TakeAst();
        ++item.report.attempts;
        const bool keep = item.batch_mode || lane.traj.satisfied;
        if (lane.traj.satisfied) ++item.report.satisfied;
        if (keep) {
          GeneratedQuery q;
          q.sql = RenderSql(lane.traj.ast, snap_->context->db()->catalog());
          q.metric = lane.traj.final_metric;
          q.satisfied = lane.traj.satisfied;
          q.features = FeaturesOf(
              lane.traj.ast, static_cast<int>(lane.traj.actions.size()));
          q.ast = std::move(lane.traj.ast);
          item.report.queries.push_back(std::move(q));
        }
        const bool done =
            item.batch_mode
                ? item.report.attempts >= item.n
                : (item.report.satisfied >= item.n ||
                   item.report.attempts >=
                       static_cast<int64_t>(item.n) * snap_->attempts_factor);
        if (done) {
          FinishItem(&lane);
          retire[b] = true;
        } else {
          BeginAttempt(actor, &lane);
        }
      } else if (lane.ep_steps >= kMaxEpisodeSteps) {
        item.status = Status::Internal("episode exceeded the hard step cap");
        retire[b] = true;
      }
    }

    // Ragged leave/join: drop retired lanes in place, then admit pending
    // items into the freed slots.
    size_t w = 0;
    for (int b = 0; b < batch; ++b) {
      if (!retire[b]) {
        if (w != static_cast<size_t>(b)) lanes[w] = std::move(lanes[b]);
        ++w;
      }
    }
    lanes.resize(w);
    admit();
  }
  return stats;
}

}  // namespace lsg
