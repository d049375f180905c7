#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace atnn {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  // SplitMix64 stream expansion is the reference way to seed xoshiro.
  uint64_t s = seed;
  for (auto& word : state_) {
    s = SplitMix64(s);
    word = s;
    s += 0x9e3779b97f4a7c15ULL;
  }
  has_cached_normal_ = false;
}

uint64_t Rng::NextUint64() {
  // xoshiro256** step.
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits give a uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t n) {
  ATNN_DCHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 must be strictly positive for log().
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return Uniform() < p;
}

int64_t Rng::Poisson(double lambda) {
  ATNN_DCHECK(lambda >= 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-lambda);
    double product = Uniform();
    int64_t count = 0;
    while (product > limit) {
      ++count;
      product *= Uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large lambda.
  const double draw = Normal(lambda, std::sqrt(lambda));
  return std::max<int64_t>(0, static_cast<int64_t>(std::llround(draw)));
}

double Rng::Exponential(double rate) {
  ATNN_DCHECK(rate > 0.0);
  double u = 0.0;
  do {
    u = Uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

int64_t Rng::Binomial(int64_t n, double p) {
  ATNN_DCHECK(n >= 0);
  p = std::clamp(p, 0.0, 1.0);
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (n <= 64) {
    int64_t count = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (Uniform() < p) ++count;
    }
    return count;
  }
  const double mean = static_cast<double>(n) * p;
  const double stddev = std::sqrt(mean * (1.0 - p));
  const double draw = Normal(mean, stddev);
  return std::clamp<int64_t>(static_cast<int64_t>(std::llround(draw)), 0, n);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  ATNN_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    ATNN_DCHECK(w >= 0.0);
    total += w;
  }
  ATNN_CHECK(total > 0.0) << "Categorical weights sum to zero";
  double target = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

size_t Rng::Zipf(size_t n, double alpha) {
  ATNN_CHECK(n > 0);
  // Inverse-CDF on the harmonic partial sums would need O(n) per draw;
  // instead use rejection-free sampling over a precomputed-free approximation:
  // draw u and invert the continuous Zipf CDF, then clamp. This is a close
  // approximation adequate for generating skewed synthetic vocabularies.
  if (alpha <= 0.0) return static_cast<size_t>(UniformInt(n));
  const double u = std::max(Uniform(), 1e-12);
  double value = 0.0;
  if (std::abs(alpha - 1.0) < 1e-9) {
    value = std::exp(u * std::log(static_cast<double>(n) + 1.0)) - 1.0;
  } else {
    const double one_minus = 1.0 - alpha;
    const double max_mass =
        std::pow(static_cast<double>(n) + 1.0, one_minus) - 1.0;
    value = std::pow(1.0 + u * max_mass, 1.0 / one_minus) - 1.0;
  }
  const auto index = static_cast<size_t>(value);
  return std::min(index, n - 1);
}

Rng Rng::Fork(uint64_t tag) {
  // Mixing the parent's stream with the tag yields decorrelated children.
  const uint64_t child_seed = HashCombine(NextUint64(), SplitMix64(tag));
  return Rng(child_seed);
}

}  // namespace atnn
