#include "metrics/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

namespace atnn::metrics {
namespace {

TEST(AucTest, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(Auc({0.9, 0.8, 0.2, 0.1}, {1, 1, 0, 0}), 1.0);
}

TEST(AucTest, InvertedRankingIsZero) {
  EXPECT_DOUBLE_EQ(Auc({0.1, 0.2, 0.8, 0.9}, {1, 1, 0, 0}), 0.0);
}

TEST(AucTest, AllTiedScoresGiveHalf) {
  EXPECT_DOUBLE_EQ(Auc({0.5, 0.5, 0.5, 0.5}, {1, 0, 1, 0}), 0.5);
}

TEST(AucTest, PartialTiesUseMidranks) {
  // scores: pos {0.9, 0.5}, neg {0.5, 0.1}. Pairs: (0.9 vs 0.5)=1,
  // (0.9 vs 0.1)=1, (0.5 vs 0.5)=0.5, (0.5 vs 0.1)=1 -> 3.5/4.
  EXPECT_DOUBLE_EQ(Auc({0.9, 0.5, 0.5, 0.1}, {1, 1, 0, 0}), 0.875);
}

TEST(AucTest, MultipleTieBlocksUseMidranks) {
  // Two separate tie blocks: {0.7, 0.7} mixed-class, {0.3, 0.3} mixed-class.
  // Pairs: (0.7 vs 0.7)=0.5, (0.7 vs 0.3)=1, (0.3 vs 0.7)=0, (0.3 vs 0.3)=0.5
  // -> 2/4.
  EXPECT_DOUBLE_EQ(Auc({0.7, 0.7, 0.3, 0.3}, {1, 0, 1, 0}), 0.5);
}

TEST(AucTest, TieBlockSpanningManyExamples) {
  // One positive at 0.5 tied with three negatives at 0.5, one negative
  // below: pairs (0.5 vs 0.5)x3 = 1.5, (0.5 vs 0.1) = 1 -> 2.5/4.
  EXPECT_DOUBLE_EQ(Auc({0.5, 0.5, 0.5, 0.5, 0.1}, {1, 0, 0, 0, 0}), 0.625);
}

TEST(AucDeathTest, SingleClassInputAborts) {
  EXPECT_DEATH(Auc({0.9, 0.1}, {1, 1}), "AUC undefined");
  EXPECT_DEATH(Auc({0.9, 0.1}, {0, 0}), "AUC undefined");
}

TEST(AucTest, HandComputedMixedCase) {
  // pos scores {0.8, 0.3}, neg {0.6, 0.2}: pairs 0.8>0.6 (1), 0.8>0.2 (1),
  // 0.3<0.6 (0), 0.3>0.2 (1) -> 3/4.
  EXPECT_DOUBLE_EQ(Auc({0.8, 0.6, 0.3, 0.2}, {1, 0, 1, 0}), 0.75);
}

TEST(AucTest, InvariantToMonotoneTransform) {
  const std::vector<float> labels = {1, 0, 1, 0, 1, 0};
  const std::vector<double> scores = {2.0, -1.0, 0.5, 0.4, 3.0, -0.2};
  std::vector<double> transformed;
  for (double s : scores) transformed.push_back(1.0 / (1.0 + std::exp(-s)));
  EXPECT_DOUBLE_EQ(Auc(scores, labels), Auc(transformed, labels));
}

TEST(MaeTest, HandComputed) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({1.0, 2.0, 5.0}, {1.0f, 4.0f, 2.0f}),
                   (0.0 + 2.0 + 3.0) / 3.0);
}

TEST(PearsonTest, PerfectLinearCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSequenceIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(SpearmanTest, MonotoneNonlinearIsOne) {
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3, 4}, {1, 8, 27, 64}), 1.0, 1e-12);
}

TEST(SpearmanTest, HandlesTies) {
  const double rho = SpearmanCorrelation({1, 2, 2, 3}, {1, 2, 3, 4});
  EXPECT_GT(rho, 0.8);
  EXPECT_LE(rho, 1.0);
}

TEST(RankGroupsTest, QuintilesAreOrderedByScore) {
  std::vector<double> scores;
  for (int i = 0; i < 100; ++i) scores.push_back(static_cast<double>(i));
  auto groups = RankGroups(scores, 5);
  ASSERT_EQ(groups.size(), 5u);
  for (const auto& group : groups) EXPECT_EQ(group.size(), 20u);
  // Group 0 holds the highest scores.
  for (int64_t idx : groups[0]) EXPECT_GE(scores[size_t(idx)], 80.0);
  for (int64_t idx : groups[4]) EXPECT_LT(scores[size_t(idx)], 20.0);
}

TEST(RankGroupsTest, UnevenSizesStayWithinOne) {
  std::vector<double> scores(103, 0.0);
  for (size_t i = 0; i < scores.size(); ++i) scores[i] = double(i);
  auto groups = RankGroups(scores, 5);
  size_t total = 0;
  for (const auto& group : groups) {
    EXPECT_GE(group.size(), 20u);
    EXPECT_LE(group.size(), 21u);
    total += group.size();
  }
  EXPECT_EQ(total, 103u);
}

TEST(MeanOverTest, SubsetMean) {
  EXPECT_DOUBLE_EQ(MeanOver({10, 20, 30, 40}, {0, 3}), 25.0);
}

}  // namespace
}  // namespace atnn::metrics
