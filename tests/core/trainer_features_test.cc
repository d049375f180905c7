// Tests for the training-loop features layered on the basic loops:
// learning-rate decay, weight decay, and evaluation protocol helpers.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baseline_trainer.h"
#include "baselines/wide_deep.h"
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

double SquaredParameterNorm(const std::vector<nn::Parameter*>& params) {
  double total = 0.0;
  for (const nn::Parameter* param : params) {
    total += param->value().SquaredNorm();
  }
  return total;
}

/// The CTR baselines train through the same epoch loop, so every decay
/// test takes a Wide & Deep model as one more input. Returns the loss
/// history and the trained parameters' squared norm.
std::pair<std::vector<double>, double> TrainBaseline(
    const data::TmallDataset& dataset, const TrainOptions& options) {
  baselines::WideDeepConfig config;
  config.deep_dims = {32, 16};
  baselines::WideDeepModel model(*dataset.user_schema,
                                 *dataset.item_profile_schema,
                                 *dataset.item_stats_schema, config);
  std::vector<double> history =
      baselines::TrainCtrBaseline(&model, dataset, options);
  return {std::move(history), SquaredParameterNorm(model.Parameters())};
}

TEST_F(TrainerFeaturesTest, LrDecayChangesTrajectory) {
  TwoTowerModel constant_lr(*dataset_->user_schema,
                            *dataset_->item_profile_schema,
                            *dataset_->item_stats_schema, MakeModelConfig());
  TwoTowerModel decayed_lr(*dataset_->user_schema,
                           *dataset_->item_profile_schema,
                           *dataset_->item_stats_schema, MakeModelConfig());
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 256;
  options.learning_rate = 2e-3f;
  const auto constant_history =
      TrainTwoTowerModel(&constant_lr, *dataset_, options);
  const auto constant_baseline = TrainBaseline(*dataset_, options).first;
  options.lr_decay_per_epoch = 0.3f;
  const auto decayed_history =
      TrainTwoTowerModel(&decayed_lr, *dataset_, options);
  const auto decayed_baseline = TrainBaseline(*dataset_, options).first;
  // First epoch identical (decay applies from epoch 2), later epochs not.
  EXPECT_DOUBLE_EQ(constant_history[0].loss_i, decayed_history[0].loss_i);
  EXPECT_NE(constant_history[2].loss_i, decayed_history[2].loss_i);
  EXPECT_EQ(constant_baseline[0], decayed_baseline[0]);
  EXPECT_NE(constant_baseline[2], decayed_baseline[2]);
  // Both still converge.
  EXPECT_LT(decayed_history.back().loss_i, decayed_history.front().loss_i);
}

TEST_F(TrainerFeaturesTest, WeightDecayShrinksParameterNorm) {
  TwoTowerModel plain(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema, MakeModelConfig());
  TwoTowerModel decayed(*dataset_->user_schema,
                        *dataset_->item_profile_schema,
                        *dataset_->item_stats_schema, MakeModelConfig());
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 256;
  options.learning_rate = 2e-3f;
  TrainTwoTowerModel(&plain, *dataset_, options);
  const auto [plain_baseline, plain_baseline_norm] =
      TrainBaseline(*dataset_, options);
  options.weight_decay = 0.05f;
  TrainTwoTowerModel(&decayed, *dataset_, options);
  const auto [decayed_baseline, decayed_baseline_norm] =
      TrainBaseline(*dataset_, options);

  EXPECT_LT(SquaredParameterNorm(decayed.Parameters()),
            SquaredParameterNorm(plain.Parameters()));
  EXPECT_NE(plain_baseline.back(), decayed_baseline.back());
  EXPECT_LT(decayed_baseline_norm, plain_baseline_norm);
}

TEST_F(TrainerFeaturesTest, AtnnTrainerHonorsDecayOptions) {
  AtnnConfig config;
  config.tower = TinyTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 5;
  AtnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, config);
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 256;
  options.learning_rate = 2e-3f;
  options.lr_decay_per_epoch = 0.5f;
  options.weight_decay = 0.01f;
  const auto history = TrainAtnnModel(&model, *dataset_, options);
  EXPECT_LT(history.back().loss_i, history.front().loss_i);
  EXPECT_LT(history.back().loss_g, history.front().loss_g);
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
