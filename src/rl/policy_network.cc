#include "rl/policy_network.h"

#include <cmath>
#include <string>

#include "common/logging.h"

namespace lsg {

Status CheckExtraFeatures(const std::vector<float>& extra,
                          const NetworkOptions& options) {
  if (extra.size() == static_cast<size_t>(options.extra_input_dims)) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "feature tail has " + std::to_string(extra.size()) +
      " entries; the network takes extra_input_dims = " +
      std::to_string(options.extra_input_dims));
}

PolicyNetwork::PolicyNetwork(int vocab_size, const NetworkOptions& options,
                             Rng* init)
    : vocab_size_(vocab_size),
      options_(options),
      lstm_(vocab_size + 1 + options.extra_input_dims, options.hidden_dim,
            options.num_layers, options.dropout, init,
            options.extra_input_dims),
      head_(options.hidden_dim, vocab_size, init) {}

PolicyNetwork::Episode PolicyNetwork::BeginEpisode(bool train) const {
  Episode ep;
  ep.state = lstm_.InitialState();
  ep.train = train;
  return ep;
}

Status PolicyNetwork::MaskedHead(const float* top,
                                 const std::vector<int>& admitted,
                                 CompactDistribution* d) const {
  if (admitted.empty()) {
    return Status::Internal("masked softmax with empty mask");
  }
  LSG_CHECK(admitted.front() >= 0 && admitted.back() < vocab_size_);
  // The FSM admits only a handful of tokens per step (mean mask width ~9
  // of ~2800 on the paper workloads), so the head projects just the
  // admitted rows — the same per-row dot products a full forward computes
  // — and the softmax runs on the compacted support.
  d->idx.assign(admitted.begin(), admitted.end());
  d->probs.resize(d->idx.size());
  head_.ForwardRows(top, d->idx.data(), static_cast<int>(d->idx.size()),
                    d->probs.data());
  return TryCompactSoftmaxInPlace(d->probs.data(), d->probs.size());
}

Status PolicyNetwork::Step(Episode* ep, const std::vector<int>& admitted,
                           Rng* dropout, CompactDistribution* dist,
                           Workspace* ws) const {
  LSG_RETURN_IF_ERROR(CheckExtraFeatures(ep->extra, options_));
  LstmStack::Lane lane;
  lane.token = ep->actions.empty() ? bos_index() : ep->actions.back();
  lane.tail = ep->extra.data();
  lane.state = &ep->state;
  if (ep->train) {
    ep->caches.emplace_back();
    lane.cache = &ep->caches.back();
    lane.dropout = dropout;
  }
  return MaskedHead(lstm_.Step(lane, ws), admitted, dist);
}

int PolicyNetwork::SampleAction(const CompactDistribution& d,
                                Rng* rng) const {
  size_t k = rng->Categorical(d.probs.data(), d.probs.size());
  if (k >= d.probs.size()) {
    // All-zero guard (unreachable after a successful softmax): greedy over
    // the compact support.
    size_t best = 0;
    for (size_t i = 1; i < d.probs.size(); ++i) {
      if (d.probs[i] > d.probs[best]) best = i;
    }
    k = best;
  }
  return d.idx[k];
}

void PolicyNetwork::AccumulateGradients(const Episode& ep,
                                        const std::vector<double>& advantages,
                                        double entropy_coef) {
  LSG_CHECK(ep.train);
  const size_t T = ep.actions.size();
  LSG_CHECK(advantages.size() == T);
  LSG_CHECK(ep.caches.size() == T && ep.dists.size() == T);

  std::vector<std::vector<float>> dtop(
      T, std::vector<float>(options_.hidden_dim, 0.f));
  std::vector<float> dlogits;
  for (size_t t = 0; t < T; ++t) {
    const CompactDistribution& d = ep.dists[t];
    const std::vector<float>& p = d.probs;
    const int a = ep.actions[t];
    const float adv = static_cast<float>(advantages[t]);

    // Entropy of the masked distribution.
    float entropy = 0.f;
    for (float pk : p) {
      if (pk > 0.f) entropy -= pk * std::log(pk);
    }

    // dL/dz_i for L = -(A log π(a) + λ H), on the masked support.
    dlogits.resize(p.size());
    for (size_t k = 0; k < p.size(); ++k) {
      float g = adv * (p[k] - (d.idx[k] == a ? 1.f : 0.f));
      if (entropy_coef > 0.0 && p[k] > 0.f) {
        g += static_cast<float>(entropy_coef) * p[k] *
             (std::log(p[k]) + entropy);
      }
      dlogits[k] = g;
    }
    const std::vector<float>& top_h = ep.caches[t].layers.back().h;
    head_.BackwardRows(top_h.data(), d.idx.data(),
                       static_cast<int>(d.idx.size()), dlogits.data(),
                       dtop[t].data());
  }
  lstm_.Backward(ep.caches, dtop);
}

double PolicyNetwork::MeanEntropy(const Episode& ep) {
  if (ep.dists.empty()) return 0.0;
  double total = 0.0;
  for (const CompactDistribution& d : ep.dists) {
    double h = 0.0;
    for (float x : d.probs) {
      if (x > 0.f) h -= x * std::log(x);
    }
    total += h;
  }
  return total / static_cast<double>(ep.dists.size());
}

std::vector<ParamTensor*> PolicyNetwork::Params() {
  std::vector<ParamTensor*> out = lstm_.Params();
  for (ParamTensor* p : head_.Params()) out.push_back(p);
  return out;
}

std::vector<const ParamTensor*> PolicyNetwork::Params() const {
  std::vector<const ParamTensor*> out = lstm_.Params();
  for (const ParamTensor* p : head_.Params()) out.push_back(p);
  return out;
}

}  // namespace lsg
