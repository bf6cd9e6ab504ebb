#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/adam.h"
#include "rl/policy_gradient_trainer.h"
#include "rl/meta_critic.h"

namespace lsg {
namespace {

/// Same dense-reward toy environment as rl_test: emit 3 symbols then EOF;
/// each correct symbol earns 1/3, the EOF step repeats the match fraction.
/// Different targets = different "constraints", so the (a, r) stream
/// identifies the task — exactly the structure the constraint encoder is
/// meant to exploit.
class ToyTaskEnv : public Environment {
 public:
  explicit ToyTaskEnv(std::vector<int> target) : target_(std::move(target)) {}

  void Reset() override {
    emitted_.clear();
    match_ = 0;
  }

  const ActionMask& ValidActions() override {
    if (emitted_.size() < target_.size()) {
      mask_ = {{1, 1, 1, 0}, {0, 1, 2}};
    } else {
      mask_ = {{0, 0, 0, 1}, {3}};
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

MetaCritic::Options SmallMeta() {
  MetaCritic::Options o;
  o.hidden_dim = 12;
  o.num_layers = 1;
  o.dropout = 0.0f;
  o.action_embed_dim = 6;
  o.encoder_dim = 6;
  o.fusion_dim = 12;
  return o;
}

TrainerOptions SmallTrainer(uint64_t seed) {
  TrainerOptions o;
  o.batch_size = 8;
  o.seed = seed;
  o.actor_lr = 3e-3f;
  o.critic_lr = 9e-3f;
  o.net.hidden_dim = 12;
  o.net.num_layers = 1;
  o.net.dropout = 0.0f;
  return o;
}

TEST(MetaCriticTest, ValueIsFinite) {
  MetaCritic mc(4, SmallMeta());
  auto ep = mc.BeginEpisode(false);
  float v = mc.StepValue(&ep, mc.bos_index());
  EXPECT_TRUE(std::isfinite(v));
}

TEST(MetaCriticTest, ObserveTripleChangesEncoderState) {
  MetaCritic mc(4, SmallMeta());
  auto ep = mc.BeginEpisode(false);
  std::vector<float> before = ep.enc_h;
  mc.ObserveTriple(&ep, 1, 0.5);
  double diff = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    diff += std::abs(ep.enc_h[i] - before[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(MetaCriticTest, RewardSignalReachesValueEstimate) {
  // The same state with different observed rewards must produce different
  // V values once triples were consumed (z_t differs).
  MetaCritic mc(4, SmallMeta());
  auto ep1 = mc.BeginEpisode(false);
  mc.StepValue(&ep1, mc.bos_index());
  mc.ObserveTriple(&ep1, 1, 1.0);
  float v1 = mc.StepValue(&ep1, 1);

  auto ep2 = mc.BeginEpisode(false);
  mc.StepValue(&ep2, mc.bos_index());
  mc.ObserveTriple(&ep2, 1, -1.0);
  float v2 = mc.StepValue(&ep2, 1);
  EXPECT_NE(v1, v2);
}

TEST(MetaCriticTest, GradientsFitTargetValue) {
  // Train V toward 0.9 for a fixed two-step episode; verifies the whole
  // backward path (fusion MLP + state LSTM + encoder LSTM + embedding).
  MetaCritic mc(4, SmallMeta());
  Adam opt(mc.Params(), 0.02f);
  float v = 0;
  for (int iter = 0; iter < 400; ++iter) {
    auto ep = mc.BeginEpisode(true);
    mc.StepValue(&ep, mc.bos_index());
    mc.ObserveTriple(&ep, 2, 0.5);
    v = mc.StepValue(&ep, 2);
    // dL/dV = V - target for each step (push both toward 0.9).
    mc.AccumulateGradients(ep, {ep.values[0] - 0.9, ep.values[1] - 0.9});
    opt.Step();
  }
  EXPECT_NEAR(v, 0.9f, 0.1f);
}

TEST(MetaCriticTest, ActionEmbeddingGoesLiveOnlyForObservedActions) {
  MetaCritic mc(4, SmallMeta());
  auto ep = mc.BeginEpisode(true);
  mc.StepValue(&ep, mc.bos_index());
  mc.ObserveTriple(&ep, 2, 0.5);
  mc.StepValue(&ep, 2);
  mc.ObserveTriple(&ep, 0, 1.0);
  mc.StepValue(&ep, 0);
  mc.AccumulateGradients(ep, {0.1, -0.2, 0.3});
  const ParamTensor* embed = nullptr;
  for (const ParamTensor* p : mc.Params()) {
    if (p->name == "meta.embed") embed = p;
  }
  ASSERT_NE(embed, nullptr);
  // Columns of the observed actions went live (the last triple's with a
  // zero gradient: no value step consumed it); the optimizer never visits
  // the others.
  for (int c = 0; c < embed->value().cols(); ++c) {
    EXPECT_EQ(embed->IsLive(c), c == 0 || c == 2) << "column " << c;
  }
}

TEST(MetaCriticTrainerTest, PretrainImprovesReward) {
  ToyTaskEnv t1({0, 0, 0}), t2({2, 2, 2});
  MetaCriticTrainer trainer({&t1, &t2}, SmallTrainer(21), SmallMeta());
  double first = 0, last = 0;
  for (int e = 0; e < 80; ++e) {
    auto st = trainer.PretrainEpoch();
    ASSERT_TRUE(st.ok());
    if (e == 0) first = st->mean_final_reward;
    last = st->mean_final_reward;
  }
  EXPECT_GT(last, first);
}

TEST(MetaCriticTrainerTest, AdaptsToNewTask) {
  ToyTaskEnv t1({0, 0, 0}), t2({2, 2, 2});
  MetaCriticTrainer trainer({&t1, &t2}, SmallTrainer(22), SmallMeta());
  for (int e = 0; e < 60; ++e) ASSERT_TRUE(trainer.PretrainEpoch().ok());
  ToyTaskEnv fresh({1, 1, 1});
  auto trace = trainer.Adapt(&fresh, 120);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->size(), 120u);
  EXPECT_GT(trace->back().mean_final_reward,
            trace->front().mean_final_reward);
  EXPECT_GT(trace->back().mean_final_reward, 0.6);
  auto gen = trainer.GenerateWithAdapted(&fresh);
  ASSERT_TRUE(gen.ok());
  EXPECT_TRUE(gen->completed);
}

TEST(MetaCriticTrainerTest, AdaptationFasterThanScratchOnAverage) {
  // The Figure 9 claim in miniature: with shared pre-trained critic the
  // adapted actor reaches a given reward in no more epochs than training
  // everything from scratch (small stochastic slack allowed).
  auto epochs_to_reach = [](double target, auto&& step_fn) {
    for (int e = 0; e < 200; ++e) {
      double r = step_fn();
      if (r >= target) return e;
    }
    return 200;
  };

  ToyTaskEnv t1({0, 1, 0}), t2({2, 1, 2});
  MetaCriticTrainer meta({&t1, &t2}, SmallTrainer(23), SmallMeta());
  for (int e = 0; e < 60; ++e) ASSERT_TRUE(meta.PretrainEpoch().ok());
  ToyTaskEnv new_task({1, 1, 2});
  auto trace = meta.Adapt(&new_task, 200);
  ASSERT_TRUE(trace.ok());
  int meta_epochs = 200;
  for (size_t e = 0; e < trace->size(); ++e) {
    if ((*trace)[e].mean_final_reward >= 0.8) {
      meta_epochs = static_cast<int>(e);
      break;
    }
  }

  ToyTaskEnv scratch_env({1, 1, 2});
  PolicyGradientTrainer scratch(&scratch_env, SmallTrainer(23));
  int scratch_epochs = epochs_to_reach(0.8, [&]() {
    auto st = scratch.TrainEpoch();
    return st.ok() ? st->mean_final_reward : 0.0;
  });

  EXPECT_LE(meta_epochs, scratch_epochs + 60);
}

// Fixed-seed trace of the whole meta-critic loop: matched symbols per epoch
// (mean_final_reward scaled back to a count), 30 pre-training epochs over
// two tasks then 30 adaptation epochs. The action embedding's gradient
// arrives one column per observed action, and skipping its untouched
// columns (the live-column optimizer tail) must leave every update — so
// every sampled episode — unchanged. Re-recorded when the weight init
// became Glorot-uniform.
TEST(MetaCriticTrainerTest, FixedSeedTraceUnchanged) {
  ToyTaskEnv t1({0, 1, 0}), t2({2, 1, 2});
  MetaCriticTrainer trainer({&t1, &t2}, SmallTrainer(24), SmallMeta());
  std::vector<long> trace;
  for (int e = 0; e < 30; ++e) {
    auto st = trainer.PretrainEpoch();
    ASSERT_TRUE(st.ok());
    trace.push_back(std::lround(st->mean_final_reward * 48));  // 2 tasks x 8 x 3
  }
  ToyTaskEnv fresh({1, 1, 2});
  auto adapt = trainer.Adapt(&fresh, 30);
  ASSERT_TRUE(adapt.ok());
  for (const EpochStats& st : *adapt) {
    trace.push_back(std::lround(st.mean_final_reward * 24));  // 8 x 3
  }
  const std::vector<long> expected = {
      19, 20, 17, 12, 15, 19, 12, 20, 10, 14, 15, 15, 17, 11, 21,
      23, 19, 18, 14, 17, 23, 20, 15, 23, 14, 21, 16, 25, 12, 18,  // pretrain
      6,  9,  11, 5,  9,  16, 4,  9,  6,  5,  8,  7,  8,  13, 8,
      9,  11, 12, 11, 10, 9,  9,  8,  12, 7,  11, 10, 11, 17, 12};  // adapt
  ASSERT_EQ(trace.size(), expected.size());
  for (size_t e = 0; e < trace.size(); ++e) {
    EXPECT_EQ(trace[e], expected[e]) << "epoch " << e;
  }
}

// FNV-1a over the value bytes of every tensor, in Params() order.
uint64_t HashParams(const std::vector<ParamTensor*>& params) {
  uint64_t h = 1469598103934665603ull;
  for (const ParamTensor* p : params) {
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(p->value().data());
    for (size_t i = 0; i < p->value().size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  }
  return h;
}

// Pins the parameters of the meta-critic and of the adapted actor after 8
// pre-training epochs over two tasks and 8 adaptation epochs, wired as
// MetaCriticTrainer wires them. Both networks run two layers with dropout,
// so the pin also covers when the critic draws its dropout and the order
// of its StepValue / ObserveTriple calls, which the rounded reward trace
// above can miss. Recorded on x86-64/glibc (the gate transcendentals come
// from libm), and re-recorded when the weight init became Glorot-uniform.
TEST(MetaCriticTrainerTest, FixedSeedParamsUnchanged) {
  TrainerOptions o = SmallTrainer(25);
  o.net.num_layers = 2;
  o.net.dropout = 0.3f;
  MetaCritic::Options mo = SmallMeta();
  mo.num_layers = 2;
  mo.dropout = 0.3f;
  mo.seed = o.seed + 7;
  MetaCritic meta(4, mo);
  Adam meta_opt(meta.Params(), o.critic_lr);
  Rng rng(o.seed);

  ToyTaskEnv t1({0, 1, 0}), t2({2, 1, 2});
  std::vector<Environment*> tasks = {&t1, &t2};
  std::vector<TrainingActor> actors;
  for (size_t i = 0; i < tasks.size(); ++i) {
    actors.emplace_back(4, o.net, o.seed + 100 + i, o.actor_lr);
  }
  for (int e = 0; e < 8; ++e) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      ASSERT_TRUE(
          TrainPolicyBatch(tasks[i], &actors[i], &meta, &meta_opt, &rng, o)
              .ok());
    }
  }
  const uint64_t pretrained = HashParams(meta.Params());

  ToyTaskEnv fresh({1, 1, 2});
  TrainingActor adapted(4, o.net, o.seed + 999, o.actor_lr);
  for (int e = 0; e < 8; ++e) {
    ASSERT_TRUE(
        TrainPolicyBatch(&fresh, &adapted, &meta, &meta_opt, &rng, o).ok());
  }
  EXPECT_EQ(pretrained, 0x0df737917d3b29d1ull) << std::hex << pretrained;
  const uint64_t meta_hash = HashParams(meta.Params());
  EXPECT_EQ(meta_hash, 0x58db3f3ddb567c62ull) << std::hex << meta_hash;
  const uint64_t actor_hash = HashParams(adapted.net->Params());
  EXPECT_EQ(actor_hash, 0x2b4c92270e9fb55eull) << std::hex << actor_hash;
}

}  // namespace
}  // namespace lsg
