#include "rl/meta_critic.h"

#include <cmath>

#include "common/logging.h"

namespace lsg {

MetaCritic::MetaCritic(int vocab_size, const Options& options)
    : vocab_size_(vocab_size),
      options_(options),
      rng_(options.seed),
      state_lstm_(vocab_size + 1, options.hidden_dim, options.num_layers,
                  options.dropout, &rng_),
      encoder_(options.action_embed_dim + 1, options.encoder_dim,
               /*onehot_input=*/false, &rng_),
      action_embed_("meta.embed",
                    Matrix::Xavier(options.action_embed_dim, vocab_size + 1,
                                   &rng_)),
      fuse1_(options.hidden_dim + options.encoder_dim, options.fusion_dim,
             &rng_),
      fuse2_(options.fusion_dim, 1, &rng_) {}

MetaCritic::Episode MetaCritic::BeginEpisode(bool train) const {
  Episode ep;
  ep.state = state_lstm_.InitialState();
  ep.enc_h.assign(options_.encoder_dim, 0.f);
  ep.enc_c.assign(options_.encoder_dim, 0.f);
  ep.train = train;
  return ep;
}

float MetaCritic::StepValue(Episode* ep, int input_token) {
  LstmStack::Lane lane;
  lane.token = input_token;
  lane.state = &ep->state;
  if (ep->train) {
    ep->state_caches.emplace_back();
    lane.cache = &ep->state_caches.back();
    lane.dropout = &rng_;
  }
  const float* top = state_lstm_.Step(lane, &ws_);

  std::vector<float> fuse_in(options_.hidden_dim + options_.encoder_dim);
  for (int i = 0; i < options_.hidden_dim; ++i) fuse_in[i] = top[i];
  for (int i = 0; i < options_.encoder_dim; ++i) {
    fuse_in[options_.hidden_dim + i] = ep->enc_h[i];
  }
  std::vector<float> mid(options_.fusion_dim);
  fuse1_.Forward(fuse_in.data(), mid.data());
  for (float& x : mid) x = std::tanh(x);
  float v = 0.f;
  fuse2_.Forward(mid.data(), &v);
  if (ep->train) {
    ep->fuse_in.push_back(std::move(fuse_in));
    ep->fuse_mid.push_back(std::move(mid));
  }
  ep->values.push_back(v);
  return v;
}

void MetaCritic::ObserveTriple(Episode* ep, int action, double reward) {
  LstmCell::Cache cache;
  cache.x.resize(options_.action_embed_dim + 1);
  for (int i = 0; i < options_.action_embed_dim; ++i) {
    cache.x[i] = action_embed_.value().at(i, action);
  }
  cache.x[options_.action_embed_dim] = static_cast<float>(reward);
  cache.h_prev = ep->enc_h;
  cache.c_prev = ep->enc_c;
  encoder_.Forward(/*onehot=*/-1, cache.x.data(),
                   static_cast<int>(cache.x.size()), cache.h_prev.data(),
                   cache.c_prev.data(), &cache);
  ep->enc_h = cache.h;
  ep->enc_c = cache.c;
  if (ep->train) {
    ep->enc_caches.push_back(std::move(cache));
    ep->enc_actions.push_back(action);
  }
}

void MetaCritic::AccumulateGradients(const Episode& ep,
                                     const std::vector<double>& dvalue) {
  LSG_CHECK(ep.train);
  const size_t T = ep.values.size();
  LSG_CHECK(dvalue.size() == T);
  const int H = options_.hidden_dim;
  const int Z = options_.encoder_dim;
  const int E = options_.action_embed_dim;

  std::vector<std::vector<float>> dtop(T, std::vector<float>(H, 0.f));
  // dz_ext[k]: gradient flowing into the encoder hidden state after triple
  // k-1 has been consumed (i.e. z_t for t = k). z_0 uses the zero initial
  // state, so its gradient is dropped.
  std::vector<std::vector<float>> dz_ext(T, std::vector<float>(Z, 0.f));

  std::vector<float> dmid(options_.fusion_dim);
  std::vector<float> dfuse_in(H + Z);
  for (size_t t = 0; t < T; ++t) {
    float dv = static_cast<float>(dvalue[t]);
    std::fill(dmid.begin(), dmid.end(), 0.f);
    fuse2_.Backward(ep.fuse_mid[t].data(), &dv, dmid.data());
    for (int i = 0; i < options_.fusion_dim; ++i) {
      float m = ep.fuse_mid[t][i];
      dmid[i] *= (1.f - m * m);  // through tanh
    }
    std::fill(dfuse_in.begin(), dfuse_in.end(), 0.f);
    fuse1_.Backward(ep.fuse_in[t].data(), dmid.data(), dfuse_in.data());
    for (int i = 0; i < H; ++i) dtop[t][i] = dfuse_in[i];
    for (int i = 0; i < Z; ++i) dz_ext[t][i] = dfuse_in[H + i];
  }

  // State path BPTT.
  state_lstm_.Backward(ep.state_caches, dtop);

  // Encoder BPTT: the hidden state after triple k is z_{k+1}; it receives
  // dz_ext[k+1] (if any value step consumed it) plus the recurrent flow.
  const size_t K = ep.enc_caches.size();
  std::vector<float> dh(Z, 0.f), dc(Z, 0.f), dh_prev(Z), dc_prev(Z),
      dx(E + 1);
  for (size_t k = K; k-- > 0;) {
    if (k + 1 < T) {
      for (int i = 0; i < Z; ++i) dh[i] += dz_ext[k + 1][i];
    }
    std::fill(dx.begin(), dx.end(), 0.f);
    encoder_.Backward(ep.enc_caches[k], dh.data(), dc.data(), dh_prev.data(),
                      dc_prev.data(), dx.data());
    dh = dh_prev;
    dc = dc_prev;
    // Action-embedding gradient: dx[0:E] lands on the embedded column,
    // which goes live for the optimizer (see ParamTensor).
    action_embed_.AccumulateColumn(ep.enc_actions[k], dx.data());
  }
}

StatusOr<std::vector<float>> MetaCritic::Score(
    const Trajectory& traj, const std::vector<float>& /*extra*/) {
  scored_ = BeginEpisode(/*train=*/true);
  for (size_t t = 0; t < traj.actions.size(); ++t) {
    StepValue(&scored_, t == 0 ? bos_index() : traj.actions[t - 1]);
    ObserveTriple(&scored_, traj.actions[t], traj.rewards[t]);
  }
  return scored_.values;
}

void MetaCritic::Backward(const std::vector<double>& dvalue) {
  AccumulateGradients(scored_, dvalue);
  scored_ = Episode();
}

std::vector<ParamTensor*> MetaCritic::Params() {
  std::vector<ParamTensor*> out = state_lstm_.Params();
  for (ParamTensor* p : encoder_.Params()) out.push_back(p);
  out.push_back(&action_embed_);
  for (ParamTensor* p : fuse1_.Params()) out.push_back(p);
  for (ParamTensor* p : fuse2_.Params()) out.push_back(p);
  return out;
}

MetaCriticTrainer::MetaCriticTrainer(std::vector<Environment*> task_envs,
                                     const TrainerOptions& options,
                                     const MetaCritic::Options& meta_options)
    : task_envs_(std::move(task_envs)), options_(options), rng_(options.seed) {
  LSG_CHECK(!task_envs_.empty());
  const int vocab = task_envs_[0]->vocab_size();
  MetaCritic::Options mo = meta_options;
  mo.seed = options.seed + 7;
  meta_ = std::make_unique<MetaCritic>(vocab, mo);
  meta_opt_ = std::make_unique<Adam>(meta_->Params(), options.critic_lr);
  for (size_t i = 0; i < task_envs_.size(); ++i) {
    actors_.emplace_back(vocab, options.net, options.seed + 100 + i,
                         options.actor_lr);
  }
}

StatusOr<EpochStats> MetaCriticTrainer::PretrainEpoch() {
  EpochStats agg;
  for (size_t i = 0; i < task_envs_.size(); ++i) {
    auto st = TrainPolicyBatch(task_envs_[i], &actors_[i], meta_.get(),
                               meta_opt_.get(), &rng_, options_);
    if (!st.ok()) return st.status();
    agg.episodes += st->episodes;
    agg.mean_total_reward += st->mean_total_reward;
    agg.mean_final_reward += st->mean_final_reward;
    agg.mean_entropy += st->mean_entropy;
    agg.satisfied_frac += st->satisfied_frac;
  }
  const double n = static_cast<double>(task_envs_.size());
  agg.mean_total_reward /= n;
  agg.mean_final_reward /= n;
  agg.mean_entropy /= n;
  agg.satisfied_frac /= n;
  return agg;
}

StatusOr<std::vector<EpochStats>> MetaCriticTrainer::Adapt(
    Environment* new_env, int epochs) {
  adapted_ = std::make_unique<TrainingActor>(
      new_env->vocab_size(), options_.net, options_.seed + 999,
      options_.actor_lr);
  std::vector<EpochStats> trace;
  trace.reserve(epochs);
  for (int e = 0; e < epochs; ++e) {
    auto st = TrainPolicyBatch(new_env, adapted_.get(), meta_.get(),
                               meta_opt_.get(), &rng_, options_);
    if (!st.ok()) return st.status();
    trace.push_back(*st);
  }
  return trace;
}

StatusOr<Trajectory> MetaCriticTrainer::GenerateWithAdapted(Environment* env) {
  LSG_CHECK(adapted_ != nullptr);
  PolicyNetwork::Episode ep = adapted_->net->BeginEpisode(/*train=*/false);
  return RolloutPolicy(env, *adapted_->net, &ep, /*dropout=*/nullptr,
                       &adapted_->ws, &rng_);
}

}  // namespace lsg
