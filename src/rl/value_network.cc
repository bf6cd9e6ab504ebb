#include "rl/value_network.h"

#include "common/logging.h"

namespace lsg {

ValueNetwork::ValueNetwork(int vocab_size, const NetworkOptions& options)
    : vocab_size_(vocab_size),
      options_(options),
      rng_(options.seed + 0x5EED),
      lstm_(vocab_size + 1 + options.extra_input_dims, options.hidden_dim,
            options.num_layers, options.dropout, &rng_,
            options.extra_input_dims),
      head_(options.hidden_dim, 1, &rng_) {}

ValueNetwork::Episode ValueNetwork::BeginEpisode(bool train) const {
  Episode ep;
  ep.state = lstm_.InitialState();
  ep.train = train;
  return ep;
}

StatusOr<float> ValueNetwork::StepValue(Episode* ep, int input_token) {
  LSG_RETURN_IF_ERROR(CheckExtraFeatures(ep->extra, options_));
  LstmStack::Lane lane;
  lane.token = input_token;
  lane.tail = ep->extra.data();
  lane.state = &ep->state;
  if (ep->train) {
    ep->caches.emplace_back();
    lane.cache = &ep->caches.back();
    lane.dropout = &rng_;
  }
  const float* top = lstm_.Step(lane, &ws_);
  float v = 0.f;
  head_.Forward(top, &v);
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

StatusOr<std::vector<float>> ValueNetwork::Score(
    const Trajectory& traj, const std::vector<float>& extra) {
  scored_ = BeginEpisode(/*train=*/true);
  scored_.extra = extra;
  for (size_t t = 0; t < traj.actions.size(); ++t) {
    const int input = t == 0 ? bos_index() : traj.actions[t - 1];
    LSG_RETURN_IF_ERROR(StepValue(&scored_, input).status());
  }
  return scored_.values;
}

void ValueNetwork::Backward(const std::vector<double>& dvalue) {
  AccumulateGradients(scored_, dvalue);
  scored_ = Episode();
}

std::vector<ParamTensor*> ValueNetwork::Params() {
  std::vector<ParamTensor*> out = lstm_.Params();
  for (ParamTensor* p : head_.Params()) out.push_back(p);
  return out;
}

}  // namespace lsg
