#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace atnn {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[rng.UniformInt(uint64_t{10})];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 450);  // ~4.5 sigma
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.015);
}

TEST(RngTest, BernoulliClampsProbabilities) {
  Rng rng(14);
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, PoissonMeanSmallLambda) {
  Rng rng(15);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += double(rng.Poisson(3.5));
  EXPECT_NEAR(sum / 20000.0, 3.5, 0.1);
}

TEST(RngTest, PoissonMeanLargeLambda) {
  Rng rng(16);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) sum += double(rng.Poisson(120.0));
  EXPECT_NEAR(sum / 5000.0, 120.0, 1.0);
}

TEST(RngTest, PoissonZeroLambdaIsZero) {
  Rng rng(17);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, BinomialMatchesMean) {
  Rng rng(18);
  double sum_small = 0.0;
  double sum_large = 0.0;
  for (int i = 0; i < 20000; ++i) sum_small += double(rng.Binomial(20, 0.25));
  for (int i = 0; i < 5000; ++i) sum_large += double(rng.Binomial(1000, 0.1));
  EXPECT_NEAR(sum_small / 20000.0, 5.0, 0.1);
  EXPECT_NEAR(sum_large / 5000.0, 100.0, 1.0);
}

TEST(RngTest, BinomialEdgeCases) {
  Rng rng(19);
  EXPECT_EQ(rng.Binomial(0, 0.5), 0);
  EXPECT_EQ(rng.Binomial(10, 0.0), 0);
  EXPECT_EQ(rng.Binomial(10, 1.0), 10);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(20);
  double sum = 0.0;
  for (int i = 0; i < 30000; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / 30000.0, 0.5, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(22);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.015);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.015);
}

TEST(RngTest, ZipfIsSkewedTowardHead) {
  Rng rng(23);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.Zipf(100, 1.2)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // All mass inside the support.
  int total = std::accumulate(counts.begin(), counts.end(), 0);
  EXPECT_EQ(total, 50000);
}

TEST(RngTest, ZipfAlphaZeroIsUniformish) {
  Rng rng(24);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.Zipf(10, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 350);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(25);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  EXPECT_NE(shuffled, values);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ForkProducesDecorrelatedStreams) {
  Rng parent(42);
  Rng child_a = parent.Fork(1);
  Rng child_b = parent.Fork(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (child_a.NextUint64() != child_b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, SplitMix64IsStable) {
  // Pinned values guard against accidental algorithm changes that would
  // silently re-randomize every dataset in the repo.
  EXPECT_EQ(SplitMix64(0), 16294208416658607535ULL);
  EXPECT_EQ(SplitMix64(1), 10451216379200822465ULL);
}

}  // namespace
}  // namespace atnn
