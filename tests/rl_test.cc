#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/stopwatch.h"
#include "core/environment.h"
#include "fsm/generation_fsm.h"
#include "nn/matrix.h"
#include "obs/obs.h"
#include "obs/span_tracer.h"
#include "rl/policy_gradient_trainer.h"
#include "rl/policy_network.h"
#include "rl/reward.h"
#include "rl/trajectory.h"
#include "rl/value_network.h"
#include "tests/dense_optimizer_reference.h"
#include "tests/dense_softmax_reference.h"
#include "tests/test_db.h"

namespace lsg {
namespace {

// ---------------------------------------------------------------- reward

TEST(ConstraintTest, PointSatisfactionWithTolerance) {
  Constraint c = Constraint::Point(ConstraintMetric::kCardinality, 1000);
  EXPECT_TRUE(c.Satisfied(1000));
  EXPECT_TRUE(c.Satisfied(950));   // within ±10%
  EXPECT_TRUE(c.Satisfied(1100));
  EXPECT_FALSE(c.Satisfied(1101));
  EXPECT_FALSE(c.Satisfied(899));
}

TEST(ConstraintTest, RangeSatisfaction) {
  Constraint c = Constraint::Range(ConstraintMetric::kCost, 1000, 2000);
  EXPECT_TRUE(c.Satisfied(1000));
  EXPECT_TRUE(c.Satisfied(2000));
  EXPECT_TRUE(c.Satisfied(1500));
  EXPECT_FALSE(c.Satisfied(999));
  EXPECT_FALSE(c.Satisfied(2001));
}

TEST(ConstraintTest, ToStringReadable) {
  EXPECT_EQ(Constraint::Point(ConstraintMetric::kCardinality, 1000).ToString(),
            "Card=1K");
  EXPECT_EQ(Constraint::Range(ConstraintMetric::kCost, 1000, 2000).ToString(),
            "Cost in [1K,2K]");
}

TEST(RewardTest, PaperExample3PointConstraint) {
  // Card = 10,000; ĉ = 100 -> 0.01; ĉ = 11,000 -> ~0.909 ("0.9" in §4.2).
  RewardFunction r(Constraint::Point(ConstraintMetric::kCardinality, 10000));
  EXPECT_NEAR(r.Reward(true, 100), 0.01, 1e-9);
  EXPECT_NEAR(r.Reward(true, 11000), 10000.0 / 11000.0, 1e-9);
}

TEST(RewardTest, PaperExample4RangeConstraint) {
  // Card = [1K, 2K]; ĉ = 1.5K -> 1; ĉ = 10K -> 0.2 (§4.2 Example 4).
  RewardFunction r(
      Constraint::Range(ConstraintMetric::kCardinality, 1000, 2000));
  EXPECT_DOUBLE_EQ(r.Reward(true, 1500), 1.0);
  EXPECT_NEAR(r.Reward(true, 10000), 0.2, 1e-9);
}

TEST(RewardTest, NonExecutableGetsZero) {
  RewardFunction r(Constraint::Point(ConstraintMetric::kCardinality, 10));
  EXPECT_DOUBLE_EQ(r.Reward(false, 10), 0.0);
}

TEST(RewardTest, ZeroMetricGetsZero) {
  RewardFunction r(Constraint::Point(ConstraintMetric::kCardinality, 10));
  EXPECT_DOUBLE_EQ(r.Reward(true, 0), 0.0);
}

TEST(RewardTest, RangeBelowUsesLeftBound) {
  RewardFunction r(
      Constraint::Range(ConstraintMetric::kCardinality, 1000, 2000));
  // ĉ = 500: max(min(0.5, 2), min(0.25, 4)) = 0.5.
  EXPECT_NEAR(r.Reward(true, 500), 0.5, 1e-9);
}

TEST(RewardTest, RewardIncreasesTowardTarget) {
  RewardFunction r(Constraint::Point(ConstraintMetric::kCost, 100));
  double prev = 0;
  for (double m : {1.0, 10.0, 50.0, 90.0, 100.0}) {
    double v = r.Reward(true, m);
    EXPECT_GT(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

// ------------------------------------------------------------ trajectory

TEST(TrajectoryTest, RewardToGo) {
  Trajectory t;
  t.rewards = {1.0, 0.0, 2.0};
  auto rtg = t.RewardToGo();
  ASSERT_EQ(rtg.size(), 3u);
  EXPECT_DOUBLE_EQ(rtg[0], 3.0);
  EXPECT_DOUBLE_EQ(rtg[1], 2.0);
  EXPECT_DOUBLE_EQ(rtg[2], 2.0);
  EXPECT_DOUBLE_EQ(t.TotalReward(), 3.0);
}

// -------------------------------------------------------------- toy env

/// Sequence-matching toy environment: emit exactly 3 symbols from {0,1,2}
/// then EOF (id 3). Rewards are dense, like the paper's environment
/// (executable partial queries earn shaped rewards): each correct symbol
/// earns 1/3, and the EOF step repeats the overall match fraction.
class ToyEnv : public Environment {
 public:
  explicit ToyEnv(std::vector<int> target) : target_(std::move(target)) {}

  void Reset() override {
    emitted_.clear();
    match_ = 0;
  }

  const ActionMask& ValidActions() override {
    if (emitted_.size() < target_.size()) {
      mask_ = {{1, 1, 1, 0}, {0, 1, 2}};
    } else {
      mask_ = {{0, 0, 0, 1}, {3}};  // EOF
    }
    return mask_;
  }

  StatusOr<EnvStepResult> Step(int action) override {
    EnvStepResult r;
    if (action == 3) {
      r.reward = static_cast<double>(match_) / target_.size();
      r.done = true;
      r.executable = true;
      r.metric = r.reward;
      r.satisfied = match_ == static_cast<int>(target_.size());
    } else {
      const bool hit = action == target_[emitted_.size()];
      if (hit) ++match_;
      r.reward = hit ? 1.0 / target_.size() : 0.0;
      r.executable = true;
      r.metric = static_cast<double>(match_) / target_.size();
      emitted_.push_back(action);
    }
    return r;
  }

  QueryAst TakeAst() override { return QueryAst(); }
  int vocab_size() const override { return 4; }

 private:
  std::vector<int> target_;
  std::vector<int> emitted_;
  ActionMask mask_;
  int match_ = 0;
};

TrainerOptions FastOptions(uint64_t seed) {
  TrainerOptions o;
  o.batch_size = 8;
  o.seed = seed;
  o.actor_lr = 3e-3f;
  o.critic_lr = 9e-3f;
  o.net.hidden_dim = 16;
  o.net.num_layers = 1;
  o.net.dropout = 0.0f;
  return o;
}

TEST(ActorCriticTrainerTest, LearnsToySequence) {
  ToyEnv env({2, 0, 1});
  PolicyGradientTrainer trainer(&env, FastOptions(5));
  double first = 0, last = 0;
  for (int e = 0; e < 150; ++e) {
    auto st = trainer.TrainEpoch();
    ASSERT_TRUE(st.ok());
    if (e == 0) first = st->mean_final_reward;
    last = st->mean_final_reward;
  }
  EXPECT_GT(last, first);
  EXPECT_GT(last, 0.7);  // near-perfect sequence reproduction
}

TEST(ActorCriticTrainerTest, GenerateUsesLearnedPolicy) {
  ToyEnv env({1, 1, 1});
  PolicyGradientTrainer trainer(&env, FastOptions(6));
  for (int e = 0; e < 150; ++e) ASSERT_TRUE(trainer.TrainEpoch().ok());
  int satisfied = 0;
  for (int i = 0; i < 50; ++i) {
    auto t = trainer.Generate();
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE(t->completed);
    EXPECT_EQ(t->actions.size(), 4u);  // 3 symbols + EOF
    if (t->satisfied) ++satisfied;
  }
  EXPECT_GT(satisfied, 30);
}

TEST(ReinforceTrainerTest, LearnsToySequence) {
  ToyEnv env({0, 2, 1});
  PolicyGradientTrainer trainer(&env, FastOptions(7), /*with_critic=*/false);
  double last = 0;
  for (int e = 0; e < 200; ++e) {
    auto st = trainer.TrainEpoch();
    ASSERT_TRUE(st.ok());
    last = st->mean_final_reward;
  }
  EXPECT_GT(last, 0.6);
}

TEST(PolicyGradientTrainerTest, EmptyBatchIsInvalidArgument) {
  // An epoch over zero episodes has no statistics to average.
  for (bool with_critic : {true, false}) {
    ToyEnv env({0, 1, 2});
    TrainerOptions o = FastOptions(8);
    o.batch_size = 0;
    PolicyGradientTrainer trainer(&env, o, with_critic);
    EXPECT_EQ(trainer.TrainEpoch().status().code(),
              StatusCode::kInvalidArgument);
  }
}

// A ValueNetwork that records when each of its critic calls starts and
// ends, on the span tracer's clock.
class TimedCritic : public Critic {
 public:
  TimedCritic(int vocab_size, const NetworkOptions& options)
      : inner_(vocab_size, options) {}

  StatusOr<std::vector<float>> Score(const Trajectory& traj,
                                     const std::vector<float>& extra) override {
    Timed timed(this);
    return inner_.Score(traj, extra);
  }
  void Backward(const std::vector<double>& dvalue) override {
    Timed timed(this);
    inner_.Backward(dvalue);
  }
  std::vector<ParamTensor*> Params() override {
    Timed timed(this);
    return inner_.Params();
  }

  struct Call {
    uint64_t start_ns, end_ns;
  };
  std::vector<Call> calls;

 private:
  struct Timed {
    explicit Timed(TimedCritic* c) : critic(c), start(Stopwatch::NowNanos()) {}
    ~Timed() { critic->calls.push_back({start, Stopwatch::NowNanos()}); }
    TimedCritic* critic;
    uint64_t start;
  };
  ValueNetwork inner_;
};

// The critic's forward and BPTT are learning, not rollout: in a traced
// actor-critic epoch every critic call starts and ends inside the epoch's
// one "rl.ac_update" span.
TEST(PolicyGradientTrainerTest, CriticRunsInsideTheUpdateSpan) {
  ToyEnv env({2, 0, 1});
  const TrainerOptions o = FastOptions(12);
  TrainingActor actor(env.vocab_size(), o.net, o.seed, o.actor_lr);
  TimedCritic critic(env.vocab_size(), o.net);
  Adam critic_opt(critic.Params(), o.critic_lr);
  Rng rng(o.seed);
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  for (int epoch = 0; epoch < 3; ++epoch) {
    critic.calls.clear();
    tracer.Clear();
    obs::SetEnabled(true);
    auto st = TrainPolicyBatch(&env, &actor, &critic, &critic_opt, &rng, o);
    obs::SetEnabled(false);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    std::vector<obs::SpanTracer::Span> updates;
    for (const obs::SpanTracer::Span& span : tracer.Snapshot()) {
      if (std::string(span.name) == "rl.ac_update") updates.push_back(span);
    }
    tracer.Clear();
    ASSERT_EQ(updates.size(), 1u);
    const uint64_t begin = updates[0].start_ns;
    const uint64_t end = begin + updates[0].duration_ns;
    // A score and a backward per episode, then the clip's Params().
    EXPECT_GE(critic.calls.size(), 2u * o.batch_size + 1);
    for (size_t i = 0; i < critic.calls.size(); ++i) {
      EXPECT_GE(critic.calls[i].start_ns, begin) << "epoch " << epoch
                                                 << ", call " << i;
      EXPECT_LE(critic.calls[i].end_ns, end) << "epoch " << epoch
                                             << ", call " << i;
    }
  }
}

TEST(TrainerComparisonTest, ActorCriticConvergesAtLeastAsWell) {
  // The paper's §7.3 claim in miniature: with the same budget the
  // actor-critic reaches a final reward no worse than REINFORCE (allowing
  // a small stochastic slack).
  double ac_sum = 0, rf_sum = 0;
  for (uint64_t seed : {11u, 12u, 13u}) {
    ToyEnv env1({2, 1, 0}), env2({2, 1, 0});
    PolicyGradientTrainer ac(&env1, FastOptions(seed));
    PolicyGradientTrainer rf(&env2, FastOptions(seed), /*with_critic=*/false);
    double ac_last = 0, rf_last = 0;
    for (int e = 0; e < 120; ++e) {
      auto s1 = ac.TrainEpoch();
      auto s2 = rf.TrainEpoch();
      ASSERT_TRUE(s1.ok() && s2.ok());
      ac_last = s1->mean_final_reward;
      rf_last = s2->mean_final_reward;
    }
    ac_sum += ac_last;
    rf_sum += rf_last;
  }
  EXPECT_GT(ac_sum, rf_sum - 0.3);
}

// -------------------------------------------------------------- networks

// One step with the actor's own dropout stream and scratch, appending the
// distribution to ep->dists as RolloutPolicy does.
Status StepActor(TrainingActor* actor, PolicyNetwork::Episode* ep,
                 const std::vector<int>& admitted) {
  return actor->net->Step(ep, admitted, &actor->dropout,
                          &ep->dists.emplace_back(), &actor->ws);
}

// One Step, with its compact distribution expanded to the full vocabulary.
std::vector<float> StepDense(TrainingActor* actor, PolicyNetwork::Episode* ep,
                             const std::vector<int>& admitted) {
  Status st = StepActor(actor, ep, admitted);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<float> out(actor->net->vocab_size(), 0.f);
  if (!st.ok()) return out;
  const PolicyNetwork::CompactDistribution& d = ep->dists.back();
  for (size_t k = 0; k < d.idx.size(); ++k) out[d.idx[k]] = d.probs[k];
  return out;
}

TEST(PolicyNetworkTest, DistributionRespectsMask) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  TrainingActor actor(5, o, o.seed, 1e-3f);
  auto ep = actor.net->BeginEpisode(false);
  const std::vector<int> admitted = {0, 2};
  ASSERT_TRUE(StepActor(&actor, &ep, admitted).ok());
  const PolicyNetwork::CompactDistribution* d = &ep.dists.back();
  EXPECT_EQ(d->idx, (std::vector<int>{0, 2}));
  ASSERT_EQ(d->probs.size(), 2u);
  EXPECT_NEAR(d->probs[0] + d->probs[1], 1.f, 1e-5);
  ASSERT_EQ(ep.dists.size(), 1u);
}

TEST(PolicyNetworkTest, SamplingHonorsMask) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  TrainingActor actor(6, o, o.seed, 1e-3f);
  Rng rng(3);
  auto ep = actor.net->BeginEpisode(false);
  const std::vector<int> admitted = {2, 4};
  ASSERT_TRUE(StepActor(&actor, &ep, admitted).ok());
  for (int i = 0; i < 200; ++i) {
    int a = actor.net->SampleAction(ep.dists.back(), &rng);
    EXPECT_TRUE(a == 2 || a == 4);
  }
}

TEST(PolicyNetworkTest, EmptyMaskIsStructuredError) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  TrainingActor actor(3, o, o.seed, 1e-3f);
  auto ep = actor.net->BeginEpisode(true);
  Status st = StepActor(&actor, &ep, {});
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(PolicyNetworkTest, EntropyDiagnostic) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  TrainingActor actor(4, o, o.seed, 1e-3f);
  auto ep = actor.net->BeginEpisode(false);
  const std::vector<int> admitted = {0, 1, 2, 3};
  StepDense(&actor, &ep, admitted);
  double h = PolicyNetwork::MeanEntropy(ep);
  EXPECT_GT(h, 0.0);
  EXPECT_LE(h, std::log(4.0) + 1e-6);
}

TEST(PolicyNetworkTest, GradientPushesTowardRewardedAction) {
  // One-step episode with positive advantage on action 2: after the update,
  // the probability of action 2 must rise.
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  o.dropout = 0.0f;
  TrainingActor actor(4, o, o.seed, 0.05f);
  PolicyNetwork& net = *actor.net;
  const std::vector<int> admitted = {0, 1, 2, 3};
  float before;
  {
    auto ep = net.BeginEpisode(false);
    before = StepDense(&actor, &ep, admitted)[2];
  }
  for (int iter = 0; iter < 5; ++iter) {
    auto ep = net.BeginEpisode(true);
    StepDense(&actor, &ep, admitted);
    net.RecordAction(&ep, 2);
    net.AccumulateGradients(ep, {1.0}, 0.0);
    actor.opt.Step();
  }
  auto ep = net.BeginEpisode(false);
  float after = StepDense(&actor, &ep, admitted)[2];
  EXPECT_GT(after, before);
}

// The compact training path against a test-local dense reference over a
// real FSM episode on the paper's Score/Student schema: full MatVec head
// logits, the full-vocabulary masked softmax, and dense dlogits through
// OuterAccum. The per-step compact distribution must be the masked entries
// of the dense one, and the head's weight and bias gradients after
// AccumulateGradients must match the dense backward, all bitwise.
TEST(PolicyNetworkTest, CompactTrainingMatchesDenseReferenceBitwise) {
  Database db = BuildScoreStudentDb();
  VocabularyOptions vo;
  vo.values_per_column = 8;
  auto vocab = Vocabulary::Build(db, vo);
  ASSERT_TRUE(vocab.ok());
  const int V = vocab->size();
  NetworkOptions o;
  o.hidden_dim = 12;
  TrainingActor actor(V, o, o.seed, 1e-3f);
  PolicyNetwork& net = *actor.net;
  Rng rng(17);
  const double kEntropyCoef = 0.01;

  // Gradients accumulate across episodes, as within a training batch.
  for (int episode = 0; episode < 3; ++episode) {
    GenerationFsm fsm(&db, &*vocab, QueryProfile());
    auto ep = net.BeginEpisode(/*train=*/true);
    std::vector<std::vector<uint8_t>> masks;
    while (!fsm.done()) {
      const ActionMask& mask = fsm.ValidActions();
      masks.push_back(mask.bytes);
      ASSERT_TRUE(StepActor(&actor, &ep, mask.ids).ok());
      const int a = net.SampleAction(ep.dists.back(), &rng);
      net.RecordAction(&ep, a);
      ASSERT_TRUE(fsm.Step(a).ok());
    }
    const size_t T = ep.actions.size();
    ASSERT_GT(T, 2u);
    std::vector<double> adv(T);
    for (double& x : adv) x = rng.Normal(0.0, 1.0);

    std::vector<ParamTensor*> params = net.Params();
    const ParamTensor& w = *params[params.size() - 2];
    const ParamTensor& b = *params[params.size() - 1];
    ASSERT_EQ(w.value().rows(), V);
    Matrix ref_dw = testing_ref::GradOrZeros(w);
    const Matrix b_grad = testing_ref::GradOrZeros(b);
    std::vector<float> ref_db(b_grad.data(), b_grad.data() + V);
    for (size_t t = 0; t < T; ++t) {
      const std::vector<float>& h = ep.caches[t].layers.back().h;
      std::vector<float> p(V);
      MatVec(w.value(), h.data(), p.data());
      for (int i = 0; i < V; ++i) p[i] += b.value().data()[i];
      ASSERT_TRUE(testing_ref::DenseMaskedSoftmax(&p, masks[t]).ok());
      const PolicyNetwork::CompactDistribution& d = ep.dists[t];
      size_t k = 0;
      for (int i = 0; i < V; ++i) {
        if (!masks[t][i]) continue;
        ASSERT_LT(k, d.idx.size());
        ASSERT_EQ(d.idx[k], i);
        ASSERT_EQ(d.probs[k], p[i]) << "step " << t << " token " << i;
        ++k;
      }
      ASSERT_EQ(k, d.idx.size());

      float entropy = 0.f;
      for (int i = 0; i < V; ++i) {
        if (masks[t][i] && p[i] > 0.f) entropy -= p[i] * std::log(p[i]);
      }
      std::vector<float> dlogits(V, 0.f);
      const float a = static_cast<float>(adv[t]);
      for (int i = 0; i < V; ++i) {
        if (!masks[t][i]) continue;
        float g = a * (p[i] - (i == ep.actions[t] ? 1.f : 0.f));
        if (p[i] > 0.f) {
          g += static_cast<float>(kEntropyCoef) * p[i] *
               (std::log(p[i]) + entropy);
        }
        dlogits[i] = g;
      }
      OuterAccum(&ref_dw, dlogits.data(), h.data());
      for (int i = 0; i < V; ++i) ref_db[i] += dlogits[i];
    }

    net.AccumulateGradients(ep, adv, kEntropyCoef);
    for (size_t i = 0; i < ref_dw.size(); ++i) {
      ASSERT_EQ(w.grad().data()[i], ref_dw.data()[i]) << "w.grad[" << i << "]";
    }
    for (int i = 0; i < V; ++i) {
      ASSERT_EQ(b.grad().data()[i], ref_db[i]) << "b.grad[" << i << "]";
    }
  }
}

TEST(ValueNetworkTest, FitsConstantTarget) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  o.dropout = 0.0f;
  ValueNetwork net(4, o);
  Adam opt(net.Params(), 0.02f);
  // Train V(s0) toward 0.7 using the same input each time.
  float v = 0;
  for (int iter = 0; iter < 300; ++iter) {
    auto ep = net.BeginEpisode(true);
    v = *net.StepValue(&ep, net.bos_index());
    net.AccumulateGradients(ep, {v - 0.7});
    opt.Step();
  }
  EXPECT_NEAR(v, 0.7f, 0.05f);
}

TEST(ValueNetworkTest, TracksInputs) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  ValueNetwork net(4, o);
  auto ep = net.BeginEpisode(false);
  ASSERT_TRUE(net.StepValue(&ep, net.bos_index()).ok());
  ASSERT_TRUE(net.StepValue(&ep, 1).ok());
  EXPECT_EQ(ep.values.size(), 2u);
  EXPECT_EQ(ep.inputs.size(), 2u);
  EXPECT_EQ(ep.inputs[0], net.bos_index());
}

TEST(ExtraFeatureTest, AcExtendInputChangesDistribution) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  o.extra_input_dims = 2;
  o.dropout = 0.0f;
  TrainingActor actor(4, o, o.seed, 1e-3f);
  const std::vector<int> admitted = {0, 1, 2, 3};
  auto ep1 = actor.net->BeginEpisode(false);
  ep1.extra = {0.0f, 0.0f};
  auto p1 = StepDense(&actor, &ep1, admitted);
  auto ep2 = actor.net->BeginEpisode(false);
  ep2.extra = {5.0f, -5.0f};
  auto p2 = StepDense(&actor, &ep2, admitted);
  double diff = 0;
  for (int i = 0; i < 4; ++i) diff += std::abs(p1[i] - p2[i]);
  EXPECT_GT(diff, 1e-4);
}

// A feature tail of the wrong length is an error wherever a network reads
// it, instead of being zero-padded or truncated.
TEST(ExtraFeatureTest, MismatchedTailIsInvalidArgument) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  o.extra_input_dims = 2;
  TrainingActor actor(4, o, o.seed, 1e-3f);
  ValueNetwork critic(4, o);
  const std::vector<int> admitted = {0, 1, 2, 3};
  for (const std::vector<float>& extra :
       {std::vector<float>{}, std::vector<float>{1.f},
        std::vector<float>{1.f, 2.f, 3.f}}) {
    for (bool train : {false, true}) {
      auto ep = actor.net->BeginEpisode(train);
      ep.extra = extra;
      EXPECT_EQ(StepActor(&actor, &ep, admitted).code(),
                StatusCode::kInvalidArgument);
      auto cep = critic.BeginEpisode(train);
      cep.extra = extra;
      EXPECT_EQ(critic.StepValue(&cep, critic.bos_index()).status().code(),
                StatusCode::kInvalidArgument);
    }
  }
  // A trainer over such nets that was never given features fails its
  // epoch rather than training on an all-zero tail.
  for (bool with_critic : {true, false}) {
    ToyEnv env({0, 1, 2});
    TrainerOptions to = FastOptions(9);
    to.net.extra_input_dims = 2;
    PolicyGradientTrainer trainer(&env, to, with_critic);
    EXPECT_EQ(trainer.TrainEpoch().status().code(),
              StatusCode::kInvalidArgument);
    trainer.set_extra_features({0.5f, -0.5f});
    EXPECT_TRUE(trainer.TrainEpoch().ok());
  }
}

// ------------------------------------------- live-column optimizer tail

// The global-norm clip that goes with each optimizer.
template <typename Opt>
void ClipFor(const std::vector<ParamTensor*>& params, double max_norm) {
  if constexpr (std::is_same_v<Opt, Adam>) {
    ClipGradNorm(params, max_norm);
  } else {
    testing_ref::DenseClipGradNorm(params, max_norm);
  }
}

// Replays PolicyGradientTrainer::TrainEpoch, with or without its critic,
// from the public pieces with a pluggable optimizer tail: the production
// live-column Adam + ClipGradNorm, or the every-entry reference. It does not
// call TrainPolicyBatch or RolloutPolicy: it is that loop's independent
// oracle. Its own episode loop steps the critic right after the actor at
// every step, while the trainer scores each finished episode, so agreeing
// also shows that scoring after the fact equals following the actor. The
// trainer, the live replay and the dense replay must agree bit for bit.
template <typename Opt>
class TrainerReplay {
 public:
  TrainerReplay(Environment* env, const TrainerOptions& o, bool with_critic)
      : env_(env), o_(o), rng_(o.seed), dropout_(o.seed) {
    NetworkOptions net = o.net;
    net.seed = o.seed;
    actor_ =
        std::make_unique<PolicyNetwork>(env->vocab_size(), net, &dropout_);
    actor_opt_ = std::make_unique<Opt>(actor_->Params(), o.actor_lr);
    if (with_critic) {
      net.seed = o.seed + 1;
      critic_ = std::make_unique<ValueNetwork>(env->vocab_size(), net);
      critic_opt_ = std::make_unique<Opt>(critic_->Params(), o.critic_lr);
    }
  }

  // One batch of episodes and one update; `audit` runs once the gradients
  // are accumulated and again after the optimizer step.
  void Epoch(const std::function<void()>& audit) {
    std::vector<PolicyNetwork::Episode> eps(o_.batch_size);
    std::vector<std::vector<double>> adv(o_.batch_size);
    for (int b = 0; b < o_.batch_size; ++b) {
      eps[b] = actor_->BeginEpisode(/*train=*/true);
      ValueNetwork::Episode cep;
      if (critic_ != nullptr) cep = critic_->BeginEpisode(/*train=*/true);
      std::vector<double> rewards;
      env_->Reset();
      for (bool done = false; !done;) {
        ASSERT_LT(rewards.size(), static_cast<size_t>(kMaxEpisodeSteps));
        const int input = eps[b].actions.empty() ? actor_->bos_index()
                                                 : eps[b].actions.back();
        eps[b].dists.emplace_back();
        ASSERT_TRUE(actor_->Step(&eps[b], env_->ValidActions().ids, &dropout_,
                                 &eps[b].dists.back(), &ws_)
                        .ok());
        if (critic_ != nullptr) {
          ASSERT_TRUE(critic_->StepValue(&cep, input).ok());
        }
        const int a = actor_->SampleAction(eps[b].dists.back(), &rng_);
        actor_->RecordAction(&eps[b], a);
        auto sr = env_->Step(a);
        ASSERT_TRUE(sr.ok());
        rewards.push_back(sr->reward);
        done = sr->done;
      }
      const size_t T = rewards.size();
      adv[b].resize(T);
      if (critic_ == nullptr) {
        double to_go = 0.0;
        for (size_t t = T; t-- > 0;) {
          to_go += rewards[t];
          adv[b][t] = to_go;
        }
        continue;
      }
      std::vector<double> dvalue(T);
      for (size_t t = 0; t < T; ++t) {
        const double v_next = t + 1 < T ? cep.values[t + 1] : 0.0;
        const double td = rewards[t] + v_next - cep.values[t];
        adv[b][t] = td;
        dvalue[t] = -td;
      }
      critic_->AccumulateGradients(cep, dvalue);
    }
    NormalizeAdvantages(&adv);
    for (int b = 0; b < o_.batch_size; ++b) {
      actor_->AccumulateGradients(eps[b], adv[b], o_.entropy_coef);
    }
    audit();
    ClipFor<Opt>(actor_->Params(), kGradClip);
    if (critic_ != nullptr) ClipFor<Opt>(critic_->Params(), kGradClip);
    actor_opt_->Step();
    if (critic_ != nullptr) critic_opt_->Step();
    audit();
  }

  // First parameter entry outside its tensor's live columns whose gradient
  // or Adam moment is not exactly +0 (live-column Adam only).
  std::string NonLiveViolation() const {
    std::string bad;
    auto check = [&bad](const std::vector<ParamTensor*>& params,
                        const Adam& opt) {
      for (size_t i = 0; i < params.size() && bad.empty(); ++i) {
        bad = testing_ref::NonLiveViolation(*params[i],
                                            opt.first_moments()[i],
                                            opt.second_moments()[i]);
      }
    };
    check(actor_->Params(), *actor_opt_);
    if (critic_ != nullptr) check(critic_->Params(), *critic_opt_);
    return bad;
  }

  PolicyNetwork& actor() { return *actor_; }
  ValueNetwork& critic() { return *critic_; }

 private:
  Environment* env_;
  TrainerOptions o_;
  Rng rng_;
  Rng dropout_;  // drew the actor's weights, then drives its dropout
  PolicyNetwork::Workspace ws_;
  std::unique_ptr<PolicyNetwork> actor_;
  std::unique_ptr<ValueNetwork> critic_;
  std::unique_ptr<Opt> actor_opt_;
  std::unique_ptr<Opt> critic_opt_;
};

// Bitwise equality of corresponding parameter values.
void ExpectSameParams(const std::vector<ParamTensor*>& a,
                      const std::vector<ParamTensor*>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i]->value().size(), b[i]->value().size());
    ASSERT_EQ(std::memcmp(a[i]->value().data(), b[i]->value().data(),
                          a[i]->value().size() * sizeof(float)),
              0)
        << what << ": " << a[i]->name << " (#" << i << ") differs";
  }
}

// Real SQL environments on the Score/Student database: a vocabulary of
// ~100 tokens of which an episode feeds only a few to the LSTM, so the
// token-input Wx of both networks keeps many never-live columns.
class LiveColumnTrainingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildScoreStudentDb();
    stats_ = DatabaseStats::Collect(db_);
    est_ = std::make_unique<CardinalityEstimator>(&db_, &stats_);
    cost_ = std::make_unique<CostModel>(est_.get());
    VocabularyOptions vo;
    vo.values_per_column = 8;
    auto v = Vocabulary::Build(db_, vo);
    ASSERT_TRUE(v.ok());
    vocab_ = std::move(v).value();
  }

  std::unique_ptr<SqlGenEnvironment> MakeEnv() {
    return std::make_unique<SqlGenEnvironment>(
        &db_, &*vocab_, est_.get(), cost_.get(),
        Constraint::Range(ConstraintMetric::kCardinality, 2, 20),
        EnvironmentOptions());
  }

  static TrainerOptions Options() {
    TrainerOptions o;
    o.seed = 31;
    o.net.hidden_dim = 16;  // 2 layers with dropout, as in the paper setup
    return o;
  }

  Database db_;
  DatabaseStats stats_;
  std::unique_ptr<CardinalityEstimator> est_;
  std::unique_ptr<CostModel> cost_;
  std::optional<Vocabulary> vocab_;
};

// With and without the critic (actor-critic and REINFORCE).
class LiveColumnReplayTest : public LiveColumnTrainingTest,
                             public ::testing::WithParamInterface<bool> {};

TEST_P(LiveColumnReplayTest, MatchesDenseOptimizerBitwise) {
  const bool with_critic = GetParam();
  auto env_t = MakeEnv(), env_l = MakeEnv(), env_d = MakeEnv();
  PolicyGradientTrainer trainer(env_t.get(), Options(), with_critic);
  TrainerReplay<Adam> live(env_l.get(), Options(), with_critic);
  TrainerReplay<testing_ref::DenseAdam> dense(env_d.get(), Options(),
                                              with_critic);
  auto audit = [&live]() {
    const std::string bad = live.NonLiveViolation();
    ASSERT_TRUE(bad.empty()) << bad;
  };
  for (int epoch = 0; epoch < 20; ++epoch) {
    ASSERT_TRUE(trainer.TrainEpoch().ok());
    live.Epoch(audit);
    dense.Epoch([] {});
    const std::string at = "epoch " + std::to_string(epoch);
    ExpectSameParams(trainer.actor().Params(), live.actor().Params(), at);
    ExpectSameParams(live.actor().Params(), dense.actor().Params(), at);
    if (with_critic) {
      ExpectSameParams(trainer.critic()->Params(), live.critic().Params(), at);
      ExpectSameParams(live.critic().Params(), dense.critic().Params(), at);
    }
  }
  // The one-hot Wx kept never-touched columns, so the skip was exercised.
  const ParamTensor& wx = *live.actor().Params()[0];
  int live_cols = 0;
  for (int c = 0; c < wx.value().cols(); ++c) live_cols += wx.IsLive(c) ? 1 : 0;
  EXPECT_GT(live_cols, 0);
  EXPECT_LT(live_cols, wx.value().cols());
}

INSTANTIATE_TEST_SUITE_P(Baseline, LiveColumnReplayTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Critic" : "NoCritic";
                         });

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

// FNV-1a over `n` floats, continuing from h.
uint64_t HashFloats(uint64_t h, const float* v, size_t n) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v);
  for (size_t i = 0; i < n * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

// FNV-1a over the value bytes of every tensor, in Params() order.
uint64_t HashParams(const std::vector<ParamTensor*>& params) {
  uint64_t h = kFnvOffset;
  for (const ParamTensor* p : params) {
    h = HashFloats(h, p->value().data(), p->value().size());
  }
  return h;
}

// Pins the actor and critic parameters after each of six epochs of the
// production trainer at the paper's 30 units. The replays above share
// the production forward kernels with the trainer, so a reassociated dot
// product would pass them; it changes these hashes. Recorded on
// x86-64/glibc (the gate transcendentals come from libm).
TEST_F(LiveColumnTrainingTest, ActorCriticFixedSeedTraceUnchanged) {
  auto env = MakeEnv();
  TrainerOptions o = Options();
  o.net.hidden_dim = 30;
  PolicyGradientTrainer trainer(env.get(), o);
  std::vector<uint64_t> trace;
  for (int epoch = 0; epoch < 6; ++epoch) {
    ASSERT_TRUE(trainer.TrainEpoch().ok());
    trace.push_back(HashParams(trainer.actor().Params()));
    trace.push_back(HashParams(trainer.critic()->Params()));
  }
  // Re-recorded when the weight init became Glorot-uniform.
  const std::vector<uint64_t> expected = {
      0xf10ea465ab93ad88ull, 0xcedc23dc4f52c85bull,  // epoch 0: actor, critic
      0xb90cd52550691910ull, 0x4794b98f78016dd2ull,
      0x5550f29babdd861dull, 0x136b3395d3da49b1ull,
      0xd93d2205463ea297ull, 0x67060b7787d8f6c9ull,
      0x8afa5574ff92b2bfull, 0x76e027d847527515ull,
      0xdd943201337777e6ull, 0xdc8eadaaccf8c142ull,
  };
  ASSERT_EQ(trace.size(), expected.size());
  for (size_t k = 0; k < trace.size(); ++k) {
    EXPECT_EQ(trace[k], expected[k])
        << "epoch " << k / 2 << (k % 2 == 0 ? " actor" : " critic")
        << " hash 0x" << std::hex << trace[k];
  }
}

// Keep-best: LearnedSqlGen::Train rolls the actor back to its best epoch
// through ParamSnapshot::Restore before publishing it. After eight epochs
// of the trainer above (the best is epoch 4), the restored actor's
// per-step distributions over four eval rollouts are pinned: a Restore
// that wrote the values without refreshing the forward panels would step
// with the last epoch's weights.
TEST_F(LiveColumnTrainingTest, RestoredActorFixedSeedTraceUnchanged) {
  auto env = MakeEnv();
  TrainerOptions o = Options();
  o.net.hidden_dim = 30;
  PolicyGradientTrainer trainer(env.get(), o);
  for (int epoch = 0; epoch < 8; ++epoch) {
    ASSERT_TRUE(trainer.TrainEpoch().ok());
  }
  const uint64_t last = HashParams(trainer.actor().Params());
  ASSERT_TRUE(trainer.RestoreBestActor());
  // The best epoch is not the last one, so the rollback moves the weights.
  ASSERT_NE(HashParams(trainer.actor().Params()), last);
  uint64_t h = kFnvOffset;
  Rng rng(5);
  PolicyNetwork::Workspace ws;
  for (int k = 0; k < 4; ++k) {
    PolicyNetwork::Episode ep = trainer.actor().BeginEpisode(/*train=*/false);
    ASSERT_TRUE(RolloutPolicy(env.get(), trainer.actor(), &ep,
                              /*dropout=*/nullptr, &ws, &rng)
                    .ok());
    for (const PolicyNetwork::CompactDistribution& d : ep.dists) {
      h = HashFloats(h, d.probs.data(), d.probs.size());
    }
  }
  EXPECT_EQ(h, 0xc83f39a6ab29b207ull) << "steps hash 0x" << std::hex << h;
}

// The REINFORCE counterpart of the actor-critic pin: actor hashes after each of
// six epochs without the critic. Re-recorded when the weight init became
// Glorot-uniform.
TEST_F(LiveColumnTrainingTest, ReinforceFixedSeedTraceUnchanged) {
  auto env = MakeEnv();
  TrainerOptions o = Options();
  o.net.hidden_dim = 30;
  PolicyGradientTrainer trainer(env.get(), o, /*with_critic=*/false);
  std::vector<uint64_t> trace;
  for (int epoch = 0; epoch < 6; ++epoch) {
    ASSERT_TRUE(trainer.TrainEpoch().ok());
    trace.push_back(HashParams(trainer.actor().Params()));
  }
  const std::vector<uint64_t> expected = {
      0x1fc12115033d0a11ull, 0xb0ea1a8ed9b1c1dbull, 0x3a5b614df2282e7aull,
      0x644330cc7b1dbfb9ull, 0x7b68e6cbac5612efull, 0xfbc0cb306f72a482ull,
  };
  ASSERT_EQ(trace.size(), expected.size());
  for (size_t k = 0; k < trace.size(); ++k) {
    EXPECT_EQ(trace[k], expected[k])
        << "epoch " << k << " actor hash 0x" << std::hex << trace[k];
  }
}

// The AC-extend counterpart (the Figure 9 baseline): actor and critic
// hashes after each of six epochs of nets whose input carries two
// constraint features after the one-hot token. Re-recorded when the
// weight init became Glorot-uniform.
TEST_F(LiveColumnTrainingTest, AcExtendFixedSeedTraceUnchanged) {
  auto env = MakeEnv();
  TrainerOptions o = Options();
  o.net.hidden_dim = 30;
  o.net.extra_input_dims = 2;
  PolicyGradientTrainer trainer(env.get(), o);
  trainer.set_extra_features({0.75f, -1.5f});
  std::vector<uint64_t> trace;
  for (int epoch = 0; epoch < 6; ++epoch) {
    ASSERT_TRUE(trainer.TrainEpoch().ok());
    trace.push_back(HashParams(trainer.actor().Params()));
    trace.push_back(HashParams(trainer.critic()->Params()));
  }
  const std::vector<uint64_t> expected = {
      0x2ceac4168a7eb4c0ull, 0xc33727e5533310cfull,  // epoch 0: actor, critic
      0xe9908a6be038afd5ull, 0x79bf66c1d17cd4ddull,
      0xdc6bef2af606c5e0ull, 0x4f70a550eb34c0e4ull,
      0xff474d2c2447b279ull, 0x2edf81aaaf6741d8ull,
      0xb450ae6bb770e987ull, 0x7b5fe11f6370bd4eull,
      0xf52a8a786d4782ceull, 0xadd5039657584b6dull,
  };
  ASSERT_EQ(trace.size(), expected.size());
  for (size_t k = 0; k < trace.size(); ++k) {
    EXPECT_EQ(trace[k], expected[k])
        << "epoch " << k / 2 << (k % 2 == 0 ? " actor" : " critic")
        << " hash 0x" << std::hex << trace[k];
  }
}

}  // namespace
}  // namespace lsg
