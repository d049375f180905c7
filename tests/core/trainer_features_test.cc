// Tests for the evaluation protocol helpers layered on the basic loops.

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "test_helpers.h"

namespace atnn::core {
namespace {

using testing_helpers::MakeNormalizedTinyDataset;
using testing_helpers::TinyTowerConfig;

class TrainerFeaturesTest : public testing::Test {
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

data::TmallDataset* TrainerFeaturesTest::dataset_ = nullptr;

TwoTowerConfig MakeModelConfig() {
  TwoTowerConfig config;
  config.tower = TinyTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 5;
  return config;
}

TEST_F(TrainerFeaturesTest, MaskStatsAsMissingZeroesOnlyStats) {
  data::CtrBatch batch = MakeCtrBatch(*dataset_, {0, 1, 2});
  const nn::Tensor profile_before = batch.item_profile.numeric;
  MaskStatsAsMissing(&batch.item_stats);
  EXPECT_EQ(batch.item_stats.numeric.AbsMax(), 0.0f);
  // Profile numerics untouched.
  for (int64_t i = 0; i < profile_before.numel(); ++i) {
    EXPECT_EQ(batch.item_profile.numeric.data()[i],
              profile_before.data()[i]);
  }
}

TEST_F(TrainerFeaturesTest, MissingStatsEvaluationDegradesTrainedModel) {
  TwoTowerModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema, MakeModelConfig());
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 256;
  options.learning_rate = 2e-3f;
  TrainTwoTowerModel(&model, *dataset_, options);
  const double complete =
      EvaluateTwoTowerAuc(model, *dataset_, dataset_->test_indices);
  const double cold = EvaluateTwoTowerAucMissingStats(
      model, *dataset_, dataset_->test_indices);
  EXPECT_LT(cold, complete);  // the Table I cold-start penalty
  EXPECT_GT(cold, 0.5);       // but profiles still carry signal
}

}  // namespace
}  // namespace atnn::core
