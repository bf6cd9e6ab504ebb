#include <gtest/gtest.h>

#include <cmath>

#include "fsm/generation_fsm.h"
#include "nn/matrix.h"
#include "rl/actor_critic_trainer.h"
#include "rl/policy_network.h"
#include "rl/reinforce_trainer.h"
#include "rl/reward.h"
#include "rl/trajectory.h"
#include "rl/value_network.h"
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

  const std::vector<uint8_t>& ValidActions() override {
    mask_.assign(4, 0);
    if (emitted_.size() < target_.size()) {
      mask_[0] = mask_[1] = mask_[2] = 1;
    } else {
      mask_[3] = 1;  // EOF
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
  std::vector<uint8_t> mask_;
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
  ActorCriticTrainer trainer(&env, FastOptions(5));
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
  ActorCriticTrainer trainer(&env, FastOptions(6));
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
  ReinforceTrainer trainer(&env, FastOptions(7));
  double last = 0;
  for (int e = 0; e < 200; ++e) {
    auto st = trainer.TrainEpoch();
    ASSERT_TRUE(st.ok());
    last = st->mean_final_reward;
  }
  EXPECT_GT(last, 0.6);
}

TEST(TrainerComparisonTest, ActorCriticConvergesAtLeastAsWell) {
  // The paper's §7.3 claim in miniature: with the same budget the
  // actor-critic reaches a final reward no worse than REINFORCE (allowing
  // a small stochastic slack).
  double ac_sum = 0, rf_sum = 0;
  for (uint64_t seed : {11u, 12u, 13u}) {
    ToyEnv env1({2, 1, 0}), env2({2, 1, 0});
    ActorCriticTrainer ac(&env1, FastOptions(seed));
    ReinforceTrainer rf(&env2, FastOptions(seed));
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

// One Step, with its compact distribution expanded to the full vocabulary.
std::vector<float> StepDense(PolicyNetwork* net, PolicyNetwork::Episode* ep,
                             const std::vector<uint8_t>& mask) {
  const PolicyNetwork::CompactDistribution* d = nullptr;
  Status st = net->Step(ep, mask, &d);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::vector<float> out(net->vocab_size(), 0.f);
  if (!st.ok()) return out;
  for (size_t k = 0; k < d->idx.size(); ++k) out[d->idx[k]] = d->probs[k];
  return out;
}

TEST(PolicyNetworkTest, DistributionRespectsMask) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  PolicyNetwork net(5, o);
  auto ep = net.BeginEpisode(false);
  std::vector<uint8_t> mask = {1, 0, 1, 0, 0};
  const PolicyNetwork::CompactDistribution* d = nullptr;
  ASSERT_TRUE(net.Step(&ep, mask, &d).ok());
  EXPECT_EQ(d->idx, (std::vector<int>{0, 2}));
  ASSERT_EQ(d->probs.size(), 2u);
  EXPECT_NEAR(d->probs[0] + d->probs[1], 1.f, 1e-5);
  ASSERT_EQ(ep.dists.size(), 1u);
}

TEST(PolicyNetworkTest, SamplingHonorsMask) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  PolicyNetwork net(6, o);
  Rng rng(3);
  auto ep = net.BeginEpisode(false);
  std::vector<uint8_t> mask = {0, 0, 1, 0, 1, 0};
  const PolicyNetwork::CompactDistribution* d = nullptr;
  ASSERT_TRUE(net.Step(&ep, mask, &d).ok());
  for (int i = 0; i < 200; ++i) {
    int a = net.SampleAction(*d, &rng);
    EXPECT_TRUE(a == 2 || a == 4);
  }
}

TEST(PolicyNetworkTest, EmptyMaskIsStructuredError) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  PolicyNetwork net(3, o);
  auto ep = net.BeginEpisode(true);
  const PolicyNetwork::CompactDistribution* d = nullptr;
  Status st = net.Step(&ep, {0, 0, 0}, &d);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(PolicyNetworkTest, EntropyDiagnostic) {
  NetworkOptions o;
  o.hidden_dim = 8;
  o.num_layers = 1;
  PolicyNetwork net(4, o);
  auto ep = net.BeginEpisode(false);
  std::vector<uint8_t> mask = {1, 1, 1, 1};
  StepDense(&net, &ep, mask);
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
  PolicyNetwork net(4, o);
  Adam opt(net.Params(), 0.05f);
  std::vector<uint8_t> mask = {1, 1, 1, 1};
  float before;
  {
    auto ep = net.BeginEpisode(false);
    before = StepDense(&net, &ep, mask)[2];
  }
  for (int iter = 0; iter < 5; ++iter) {
    auto ep = net.BeginEpisode(true);
    StepDense(&net, &ep, mask);
    net.RecordAction(&ep, 2);
    net.AccumulateGradients(ep, {1.0}, 0.0);
    opt.Step();
  }
  auto ep = net.BeginEpisode(false);
  float after = StepDense(&net, &ep, mask)[2];
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
  PolicyNetwork net(V, o);
  Rng rng(17);
  const double kEntropyCoef = 0.01;

  // Gradients accumulate across episodes, as within a training batch.
  for (int episode = 0; episode < 3; ++episode) {
    GenerationFsm fsm(&db, &*vocab, QueryProfile());
    auto ep = net.BeginEpisode(/*train=*/true);
    std::vector<std::vector<uint8_t>> masks;
    while (!fsm.done()) {
      masks.push_back(fsm.ValidActions());
      const PolicyNetwork::CompactDistribution* d = nullptr;
      ASSERT_TRUE(net.Step(&ep, masks.back(), &d).ok());
      const int a = net.SampleAction(*d, &rng);
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
    ASSERT_EQ(w.value.rows(), V);
    Matrix ref_dw = w.grad;
    std::vector<float> ref_db(b.grad.data(), b.grad.data() + V);
    for (size_t t = 0; t < T; ++t) {
      const std::vector<float>& h = ep.caches[t].layers.back().h;
      std::vector<float> p(V);
      MatVec(w.value, h.data(), p.data());
      for (int i = 0; i < V; ++i) p[i] += b.value.data()[i];
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
      ASSERT_EQ(w.grad.data()[i], ref_dw.data()[i]) << "w.grad[" << i << "]";
    }
    for (int i = 0; i < V; ++i) {
      ASSERT_EQ(b.grad.data()[i], ref_db[i]) << "b.grad[" << i << "]";
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
    v = net.StepValue(&ep, net.bos_index());
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
  net.StepValue(&ep, net.bos_index());
  net.StepValue(&ep, 1);
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
  PolicyNetwork net(4, o);
  std::vector<uint8_t> mask = {1, 1, 1, 1};
  auto ep1 = net.BeginEpisode(false);
  ep1.extra = {0.0f, 0.0f};
  auto p1 = StepDense(&net, &ep1, mask);
  auto ep2 = net.BeginEpisode(false);
  ep2.extra = {5.0f, -5.0f};
  auto p2 = StepDense(&net, &ep2, mask);
  double diff = 0;
  for (int i = 0; i < 4; ++i) diff += std::abs(p1[i] - p2[i]);
  EXPECT_GT(diff, 1e-4);
}

}  // namespace
}  // namespace lsg
