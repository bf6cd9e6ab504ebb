#include "rl/value_network.h"

#include "common/logging.h"

namespace lsg {

ValueNetwork::ValueNetwork(int vocab_size, const NetworkOptions& options)
    : vocab_size_(vocab_size),
      options_(options),
      rng_(options.seed + 0x5EED),
      lstm_(vocab_size + 1 + options.extra_input_dims, options.hidden_dim,
            options.num_layers, options.dropout, &rng_),
      head_(options.hidden_dim, 1, &rng_) {}

ValueNetwork::Episode ValueNetwork::BeginEpisode(bool train) const {
  Episode ep;
  ep.state = lstm_.InitialState();
  ep.train = train;
  return ep;
}

float ValueNetwork::StepValue(Episode* ep, int input_token) {
  LstmStack::StepCache* cache = nullptr;
  if (ep->train) {
    ep->caches.emplace_back();
    cache = &ep->caches.back();
  }
  const std::vector<float>* top;
  if (options_.extra_input_dims > 0) {
    std::vector<float> x(vocab_size_ + 1 + options_.extra_input_dims, 0.f);
    x[input_token] = 1.f;
    for (int i = 0; i < options_.extra_input_dims &&
                    i < static_cast<int>(ep->extra.size()); ++i) {
      x[vocab_size_ + 1 + i] = ep->extra[i];
    }
    top = &lstm_.StepDense(x.data(), &ep->state, cache, ep->train, &rng_);
  } else {
    top = &lstm_.Step(input_token, &ep->state, cache, ep->train, &rng_);
  }
  float v = 0.f;
  head_.Forward(top->data(), &v);
  ep->values.push_back(v);
  ep->inputs.push_back(input_token);
  return v;
}

void ValueNetwork::AccumulateGradients(const Episode& ep,
                                       const std::vector<double>& dvalue) {
  LSG_CHECK(ep.train);
  const size_t T = ep.values.size();
  LSG_CHECK(dvalue.size() == T && ep.caches.size() == T);
  std::vector<std::vector<float>> dtop(
      T, std::vector<float>(options_.hidden_dim, 0.f));
  for (size_t t = 0; t < T; ++t) {
    float dv = static_cast<float>(dvalue[t]);
    const std::vector<float>& top_h = ep.caches[t].layers.back().h;
    head_.Backward(top_h.data(), &dv, dtop[t].data());
  }
  lstm_.Backward(ep.caches, dtop);
}

RolloutHooks ValueNetwork::FollowEpisode(const std::vector<float>& extra) {
  followed_ = BeginEpisode(/*train=*/true);
  followed_.extra = extra;
  RolloutHooks hooks;
  hooks.after_actor_step = [this](int input) { StepValue(&followed_, input); };
  return hooks;
}

void ValueNetwork::AccumulateEpisodeGradients(
    const std::vector<double>& dvalue) {
  AccumulateGradients(followed_, dvalue);
  followed_ = Episode();
}

std::vector<ParamTensor*> ValueNetwork::Params() {
  std::vector<ParamTensor*> out = lstm_.Params();
  for (ParamTensor* p : head_.Params()) out.push_back(p);
  return out;
}

}  // namespace lsg
