#ifndef ATNN_COMMON_RNG_H_
#define ATNN_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace atnn {

/// Deterministic, seedable pseudo-random generator used everywhere in the
/// library. Wraps xoshiro256** seeded via SplitMix64; every stochastic
/// component takes an explicit seed so experiments are reproducible
/// run-to-run and machine-to-machine (no std::random_device, and no reliance
/// on implementation-defined std distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  /// Re-seeds the generator deterministically.
  void Seed(uint64_t seed);

  /// Uniform random 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, 1).
  double Uniform();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi). Requires lo < hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    ATNN_DCHECK(lo < hi);
    return lo + static_cast<int64_t>(UniformInt(static_cast<uint64_t>(hi - lo)));
  }

  /// Standard normal via Box–Muller (cached second value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Poisson draw with mean lambda >= 0. Uses Knuth's method for small
  /// lambda and a normal approximation for large lambda.
  int64_t Poisson(double lambda);

  /// Exponential draw with the given rate (> 0).
  double Exponential(double rate);

  /// Binomial(n, p) draw; exact Bernoulli summation for small n, normal
  /// approximation with continuity correction for large n.
  int64_t Binomial(int64_t n, double p);

  /// Log-normal draw: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma) {
    return std::exp(Normal(mu, sigma));
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  size_t Categorical(const std::vector<double>& weights);

  /// Zipf-like categorical over [0, n): P(k) proportional to 1/(k+1)^alpha.
  /// Models the skewed head/tail structure of e-commerce vocabularies.
  size_t Zipf(size_t n, double alpha);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (size_t i = values->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(static_cast<uint64_t>(i + 1)));
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// Derives an independent child generator; children with distinct tags are
  /// decorrelated from each other and from the parent.
  Rng Fork(uint64_t tag);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Stateless 64-bit mix usable as a hash for feature hashing.
uint64_t SplitMix64(uint64_t x);

/// Hash-combines two 64-bit values (for hashed categorical crosses).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace atnn

#endif  // ATNN_COMMON_RNG_H_
