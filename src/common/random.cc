#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace lsg {

namespace {
// SplitMix64 step, used to expand the seed into the xoshiro state.
uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

uint64_t SplitMix64(uint64_t x) { return SplitMix64Next(&x); }

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (int i = 0; i < 4; ++i) s_[i] = SplitMix64Next(&sm);
  // Avoid the all-zero state, which xoshiro cannot escape.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Uniform(uint64_t n) {
  LSG_CHECK(n > 0);
  // Lemire's nearly-divisionless bounded sampling.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  LSG_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(Uniform(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  // Guard log(0).
  if (u1 < 1e-300) u1 = 1e-300;
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

uint64_t Rng::Zipf(uint64_t n, double s) {
  LSG_CHECK(n > 0);
  if (s <= 0.0) return Uniform(n);
  // Rejection-inversion (Gray et al. approximation via integral of x^-s).
  // For the modest n used in data generation this is accurate enough.
  const double exp1 = 1.0 - s;
  auto h_integral = [&](double x) {
    if (std::abs(exp1) < 1e-12) return std::log(x);
    return (std::pow(x, exp1) - 1.0) / exp1;
  };
  auto h_integral_inv = [&](double y) {
    if (std::abs(exp1) < 1e-12) return std::exp(y);
    return std::pow(1.0 + y * exp1, 1.0 / exp1);
  };
  const double hx_max = h_integral(static_cast<double>(n) + 0.5);
  const double hx_min = h_integral(0.5);
  for (int attempt = 0; attempt < 64; ++attempt) {
    double u = hx_min + UniformDouble() * (hx_max - hx_min);
    double x = h_integral_inv(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n) k = n;
    // Accept with probability proportional to the true mass.
    double accept = std::pow(static_cast<double>(k), -s) /
                    std::pow(x, -s);
    if (UniformDouble() <= accept) return k - 1;
  }
  return Uniform(n);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return weights.size();
  double target = UniformDouble() * total;
  double cum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cum += weights[i];
    if (target < cum) return i;
  }
  return weights.size() - 1;
}

size_t Rng::Categorical(const float* weights, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += weights[i];
  if (total <= 0.0) return n;
  double target = UniformDouble() * total;
  double cum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    cum += weights[i];
    if (target < cum) return i;
  }
  return n - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  LSG_CHECK(k <= n);
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  // Partial Fisher-Yates: only the first k positions need shuffling.
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + Uniform(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace lsg
