#include "core/two_tower.h"

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "test_helpers.h"

namespace atnn::core {
namespace {

using testing_helpers::MakeNormalizedTinyDataset;
using testing_helpers::TinyTowerConfig;

class TwoTowerTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(MakeNormalizedTinyDataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static data::TmallDataset* dataset_;
};

data::TmallDataset* TwoTowerTest::dataset_ = nullptr;

TwoTowerConfig MakeConfig(nn::TowerKind kind, bool use_stats) {
  TwoTowerConfig config;
  config.tower = TinyTowerConfig(kind);
  config.use_item_stats = use_stats;
  config.seed = 5;
  return config;
}

TEST_F(TwoTowerTest, VectorShapesMatchConfig) {
  TwoTowerModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema,
                      MakeConfig(nn::TowerKind::kDeepCross, true));
  const data::CtrBatch batch = MakeCtrBatch(*dataset_, {0, 1, 2});
  nn::Var user_vec = model.UserVector(batch.user);
  nn::Var item_vec = model.ItemVector(batch.item_profile, batch.item_stats);
  EXPECT_EQ(user_vec.rows(), 3);
  EXPECT_EQ(user_vec.cols(), 12);
  EXPECT_EQ(item_vec.rows(), 3);
  EXPECT_EQ(item_vec.cols(), 12);
  nn::Var logits = model.ScoreLogits(item_vec, user_vec);
  EXPECT_EQ(logits.rows(), 3);
  EXPECT_EQ(logits.cols(), 1);
}

TEST_F(TwoTowerTest, PredictCtrReturnsProbabilities) {
  TwoTowerModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema,
                      MakeConfig(nn::TowerKind::kFullyConnected, true));
  const data::CtrBatch batch =
      MakeCtrBatch(*dataset_, {0, 1, 2, 3, 4, 5, 6, 7});
  const std::vector<double> probs =
      model.PredictCtr(batch.user, batch.item_profile, batch.item_stats);
  ASSERT_EQ(probs.size(), 8u);
  for (double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST_F(TwoTowerTest, TrainingReducesLoss) {
  TwoTowerModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema,
                      MakeConfig(nn::TowerKind::kDeepCross, true));
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 256;
  options.learning_rate = 2e-3f;
  const auto history = TrainTwoTowerModel(&model, *dataset_, options);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_LT(history.back().loss_i, history.front().loss_i);
}

TEST_F(TwoTowerTest, TrainedModelBeatsRandomAuc) {
  TwoTowerModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema,
                      MakeConfig(nn::TowerKind::kDeepCross, true));
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 256;
  options.learning_rate = 2e-3f;
  TrainTwoTowerModel(&model, *dataset_, options);
  const double auc =
      EvaluateTwoTowerAuc(model, *dataset_, dataset_->test_indices);
  EXPECT_GT(auc, 0.6);
}

TEST_F(TwoTowerTest, ProfileOnlyModelIgnoresStats) {
  TwoTowerModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema,
                      MakeConfig(nn::TowerKind::kDeepCross, false));
  const data::CtrBatch batch = MakeCtrBatch(*dataset_, {0, 1});
  // Corrupt the stats block: predictions must not change.
  data::CtrBatch corrupted = batch;
  corrupted.item_stats.numeric.Fill(1e6f);
  const auto a =
      model.PredictCtr(batch.user, batch.item_profile, batch.item_stats);
  const auto b = model.PredictCtr(corrupted.user, corrupted.item_profile,
                                  corrupted.item_stats);
  EXPECT_EQ(a, b);
}

TEST_F(TwoTowerTest, DcnHasMoreParametersThanFc) {
  TwoTowerModel fc(*dataset_->user_schema, *dataset_->item_profile_schema,
                   *dataset_->item_stats_schema,
                   MakeConfig(nn::TowerKind::kFullyConnected, true));
  TwoTowerModel dcn(*dataset_->user_schema, *dataset_->item_profile_schema,
                    *dataset_->item_stats_schema,
                    MakeConfig(nn::TowerKind::kDeepCross, true));
  EXPECT_GT(dcn.NumParameterElements(), fc.NumParameterElements());
}

TEST_F(TwoTowerTest, DeterministicConstructionForSameSeed) {
  const TwoTowerConfig config = MakeConfig(nn::TowerKind::kDeepCross, true);
  TwoTowerModel a(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, config);
  TwoTowerModel b(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, config);
  const data::CtrBatch batch = MakeCtrBatch(*dataset_, {0, 1, 2, 3});
  EXPECT_EQ(a.PredictCtr(batch.user, batch.item_profile, batch.item_stats),
            b.PredictCtr(batch.user, batch.item_profile, batch.item_stats));
}

TEST(MakeBatchesTest, ChunksExactly) {
  const std::vector<int64_t> indices = {1, 2, 3, 4, 5, 6, 7};
  const auto batches = MakeBatchSpans(indices, 3);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(std::vector<int64_t>(batches[0].begin(), batches[0].end()),
            (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(std::vector<int64_t>(batches[1].begin(), batches[1].end()),
            (std::vector<int64_t>{4, 5, 6}));
  EXPECT_EQ(std::vector<int64_t>(batches[2].begin(), batches[2].end()),
            (std::vector<int64_t>{7}));
}

}  // namespace
}  // namespace atnn::core
