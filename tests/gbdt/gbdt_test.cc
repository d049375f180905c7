#include "gbdt/gbdt.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gbdt/binner.h"
#include "metrics/metrics.h"

namespace atnn::gbdt {
namespace {

TEST(FeatureBinnerTest, FewDistinctValuesGetExactBins) {
  nn::Tensor features(6, 1, {1, 1, 2, 2, 3, 3});
  FeatureBinner binner = FeatureBinner::Fit(features, 16);
  EXPECT_EQ(binner.num_bins(0), 3);
  EXPECT_EQ(binner.Bin(0, 1.0f), 0);
  EXPECT_EQ(binner.Bin(0, 2.0f), 1);
  EXPECT_EQ(binner.Bin(0, 3.0f), 2);
  // Unseen values land in the nearest bucket by threshold.
  EXPECT_EQ(binner.Bin(0, 0.0f), 0);
  EXPECT_EQ(binner.Bin(0, 99.0f), 2);
}

TEST(FeatureBinnerTest, ManyValuesRespectMaxBins) {
  Rng rng(5);
  nn::Tensor features(1000, 1);
  for (int64_t r = 0; r < 1000; ++r) {
    features.at(r, 0) = static_cast<float>(rng.Normal());
  }
  FeatureBinner binner = FeatureBinner::Fit(features, 32);
  EXPECT_LE(binner.num_bins(0), 32);
  EXPECT_GE(binner.num_bins(0), 16);
  // Bin indices are monotone in the value.
  EXPECT_LE(binner.Bin(0, -2.0f), binner.Bin(0, 0.0f));
  EXPECT_LE(binner.Bin(0, 0.0f), binner.Bin(0, 2.0f));
}

TEST(FeatureBinnerTest, BinMatrixMatchesScalarBinning) {
  nn::Tensor features(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
  FeatureBinner binner = FeatureBinner::Fit(features, 8);
  std::vector<uint8_t> binned = binner.BinMatrix(features);
  for (int64_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(binned[static_cast<size_t>(r) * 2 + c],
                binner.Bin(c, features.at(r, static_cast<int64_t>(c))));
    }
  }
}

TEST(GbdtTest, LearnsAxisAlignedDecisionBoundary) {
  // y = 1 iff x0 > 0.5 — one split suffices.
  Rng rng(7);
  const int64_t n = 2000;
  nn::Tensor features(n, 3);
  std::vector<float> labels(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      features.at(r, c) = static_cast<float>(rng.Uniform());
    }
    labels[static_cast<size_t>(r)] = features.at(r, 0) > 0.5f ? 1.0f : 0.0f;
  }
  GbdtConfig config;
  config.num_trees = 20;
  config.tree.max_depth = 3;
  GbdtModel model;
  model.Train(features, labels, config);

  const std::vector<double> probs = model.PredictProbability(features);
  EXPECT_GT(metrics::Auc(probs, labels), 0.99);
}

TEST(GbdtTest, LearnsXorInteraction) {
  // XOR needs depth >= 2 — verifies trees capture interactions, the reason
  // GBDT is a credible CTR baseline.
  Rng rng(8);
  const int64_t n = 4000;
  nn::Tensor features(n, 2);
  std::vector<float> labels(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    const bool a = rng.Bernoulli(0.5);
    const bool b = rng.Bernoulli(0.5);
    features.at(r, 0) = a ? 1.0f : 0.0f;
    features.at(r, 1) = b ? 1.0f : 0.0f;
    labels[static_cast<size_t>(r)] = (a != b) ? 1.0f : 0.0f;
  }
  GbdtConfig config;
  config.num_trees = 30;
  config.tree.max_depth = 3;
  GbdtModel model;
  model.Train(features, labels, config);
  EXPECT_GT(metrics::Auc(model.PredictProbability(features), labels), 0.99);
}

TEST(GbdtTest, TrainingLossDecreasesMonotonically) {
  Rng rng(9);
  const int64_t n = 1000;
  nn::Tensor features(n, 4);
  std::vector<float> labels(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    double logit = 0.0;
    for (int64_t c = 0; c < 4; ++c) {
      features.at(r, c) = static_cast<float>(rng.Normal());
      logit += features.at(r, c) * (c + 1) * 0.4;
    }
    labels[static_cast<size_t>(r)] =
        rng.Bernoulli(1.0 / (1.0 + std::exp(-logit))) ? 1.0f : 0.0f;
  }
  GbdtConfig config;
  config.num_trees = 25;
  config.subsample = 1.0;  // deterministic trees -> monotone training loss
  GbdtModel model;
  model.Train(features, labels, config);
  const auto& curve = model.training_loss_curve();
  ASSERT_EQ(curve.size(), 25u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-9) << "round " << i;
  }
}

TEST(GbdtTest, SquaredLossRegressionFitsLinearTarget) {
  Rng rng(10);
  const int64_t n = 2000;
  nn::Tensor features(n, 1);
  std::vector<float> labels(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    features.at(r, 0) = static_cast<float>(rng.Uniform(-2.0, 2.0));
    labels[static_cast<size_t>(r)] = 3.0f * features.at(r, 0) + 1.0f;
  }
  GbdtConfig config;
  config.loss = GbdtLoss::kSquared;
  config.num_trees = 60;
  config.learning_rate = 0.2;
  GbdtModel model;
  model.Train(features, labels, config);
  const std::vector<double> preds = model.PredictRaw(features);
  EXPECT_LT(metrics::MeanAbsoluteError(preds, labels), 0.25);
}

TEST(GbdtTest, DeterministicForFixedSeed) {
  Rng rng(11);
  const int64_t n = 500;
  nn::Tensor features(n, 3);
  std::vector<float> labels(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      features.at(r, c) = static_cast<float>(rng.Normal());
    }
    labels[static_cast<size_t>(r)] = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
  }
  GbdtConfig config;
  config.num_trees = 10;
  GbdtModel a;
  GbdtModel b;
  a.Train(features, labels, config);
  b.Train(features, labels, config);
  EXPECT_EQ(a.PredictRaw(features), b.PredictRaw(features));
}

TEST(GbdtTest, MinSamplesLeafBoundsLeafSize) {
  // One feature equal to the row index: each leaf of a single tree is a
  // contiguous run of equal margins over the rows in order. Labels in
  // blocks of 25 rows give splits worth making down to that width.
  const int64_t n = 200;
  nn::Tensor features(n, 1);
  std::vector<float> labels(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    features.at(r, 0) = static_cast<float>(r);
    labels[static_cast<size_t>(r)] = static_cast<float>((r / 25) % 2);
  }
  GbdtConfig config;
  config.num_trees = 1;
  config.subsample = 1.0;
  config.tree.max_depth = 20;
  const auto leaf_runs = [&](int min_samples_leaf) {
    config.tree.min_samples_leaf = min_samples_leaf;
    GbdtModel model;
    model.Train(features, labels, config);
    EXPECT_EQ(model.num_trees(), 1u);
    const std::vector<double> margins = model.PredictRaw(features);
    std::vector<int64_t> runs = {1};
    for (size_t r = 1; r < margins.size(); ++r) {
      if (margins[r] == margins[r - 1]) {
        ++runs.back();
      } else {
        runs.push_back(1);
      }
    }
    return runs;
  };

  // With >= 50 rows per leaf and 200 rows, a tree has at most 4 leaves.
  const std::vector<int64_t> bounded = leaf_runs(50);
  EXPECT_GE(bounded.size(), 2u);
  EXPECT_LE(bounded.size(), 4u);
  for (const int64_t run : bounded) EXPECT_GE(run, 50);
  // The bound is what limits the leaves: at 10, the same data splits into
  // leaves shorter than 50 rows.
  const std::vector<int64_t> loose = leaf_runs(10);
  EXPECT_TRUE(std::any_of(loose.begin(), loose.end(),
                          [](int64_t run) { return run < 50; }));
}

}  // namespace
}  // namespace atnn::gbdt
