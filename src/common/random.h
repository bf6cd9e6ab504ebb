#ifndef LEARNEDSQLGEN_COMMON_RANDOM_H_
#define LEARNEDSQLGEN_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lsg {

/// SplitMix64 finalizer: a stateless, high-quality 64→64 bit mixer. Use it
/// to derive independent stream seeds from a base seed plus a stream index
/// (e.g. per-worker seeds in the generation service), so that nearby base
/// seeds still yield decorrelated streams.
uint64_t SplitMix64(uint64_t x);

/// Deterministic, fast PRNG (xoshiro256**). All stochastic components in the
/// library (data generation, value sampling, policy sampling, dropout,
/// weight init) draw from an explicitly seeded Rng so that every experiment
/// is reproducible end to end.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value. Inline: weight init (Matrix::Xavier) takes one
  /// per weight, ~430K per actor.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli trial with probability p of true.
  bool Bernoulli(double p);

  /// Zipf-distributed integer in [0, n) with skew s (s=0 is uniform).
  /// Uses rejection-free inverse-CDF over a precomputable small n or the
  /// approximation of Gray et al. for large n.
  uint64_t Zipf(uint64_t n, double s);

  /// Samples an index from an (unnormalized) non-negative weight vector.
  /// Returns weights.size() if all weights are zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Float-span overload with identical arithmetic (every float widens
  /// exactly to double, so the cumulative walk matches the vector form
  /// bitwise) and no temporary double vector — the serving decode path
  /// samples every token through this.
  size_t Categorical(const float* weights, size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = Uniform(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace lsg

#endif  // LEARNEDSQLGEN_COMMON_RANDOM_H_
