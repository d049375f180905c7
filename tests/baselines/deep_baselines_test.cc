// Tests for the autograd CTR baselines: Wide & Deep, DeepFM and Concat-DNN.

#include <gtest/gtest.h>

#include "baselines/baseline_trainer.h"
#include "baselines/concat_dnn.h"
#include "baselines/deepfm.h"
#include "baselines/wide_deep.h"
#include "core/feature_adapter.h"

namespace atnn::baselines {
namespace {

class DeepBaselinesTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::TmallConfig config;
    config.num_users = 300;
    config.num_items = 400;
    config.num_new_items = 50;
    config.num_interactions = 12000;
    config.attractiveness_sample = 32;
    config.seed = 20240601;
    dataset_ = new data::TmallDataset(data::GenerateTmallDataset(config));
    core::NormalizeTmallInPlace(dataset_);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static core::TrainOptions FastOptions() {
    core::TrainOptions options;
    options.epochs = 3;
    options.batch_size = 256;
    options.learning_rate = 2e-3f;
    return options;
  }

  static data::TmallDataset* dataset_;
};

data::TmallDataset* DeepBaselinesTest::dataset_ = nullptr;

TEST_F(DeepBaselinesTest, WideDeepLogitShape) {
  WideDeepConfig config;
  config.deep_dims = {32, 16};
  WideDeepModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema, config);
  const data::CtrBatch batch = MakeCtrBatch(*dataset_, {0, 1, 2, 3});
  nn::Var logits = model.Logits(batch);
  EXPECT_EQ(logits.rows(), 4);
  EXPECT_EQ(logits.cols(), 1);
  EXPECT_TRUE(logits.value().AllFinite());
}

TEST_F(DeepBaselinesTest, WideDeepTrainsAndBeatsRandom) {
  WideDeepConfig config;
  config.deep_dims = {32, 16};
  WideDeepModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema, config);
  const auto losses = TrainCtrBaseline(&model, *dataset_, FastOptions());
  EXPECT_LT(losses.back(), losses.front());
  EXPECT_GT(EvaluateCtrBaselineAuc(model, *dataset_, dataset_->test_indices),
            0.65);
}

TEST_F(DeepBaselinesTest, WideDeepWithoutStatsIgnoresStats) {
  WideDeepConfig config;
  config.deep_dims = {16};
  config.use_item_stats = false;
  WideDeepModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema, config);
  data::CtrBatch batch = MakeCtrBatch(*dataset_, {0, 1});
  const auto a = model.PredictCtr(batch);
  batch.item_stats.numeric.Fill(1e5f);
  const auto b = model.PredictCtr(batch);
  EXPECT_EQ(a, b);
}

TEST_F(DeepBaselinesTest, DeepFmLogitShapeAndFieldCount) {
  DeepFmConfig config;
  config.deep_dims = {32, 16};
  DeepFmModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                    *dataset_->item_stats_schema, config);
  EXPECT_EQ(model.num_fields(),
            dataset_->user_schema->num_categorical() +
                dataset_->item_profile_schema->num_categorical());
  const data::CtrBatch batch = MakeCtrBatch(*dataset_, {0, 1, 2});
  nn::Var logits = model.Logits(batch);
  EXPECT_EQ(logits.rows(), 3);
  EXPECT_EQ(logits.cols(), 1);
  EXPECT_TRUE(logits.value().AllFinite());
}

TEST_F(DeepBaselinesTest, DeepFmTrainsAndBeatsRandom) {
  DeepFmConfig config;
  config.deep_dims = {32, 16};
  DeepFmModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                    *dataset_->item_stats_schema, config);
  const auto losses = TrainCtrBaseline(&model, *dataset_, FastOptions());
  EXPECT_LT(losses.back(), losses.front());
  EXPECT_GT(EvaluateCtrBaselineAuc(model, *dataset_, dataset_->test_indices),
            0.65);
}

TEST_F(DeepBaselinesTest, PredictionsAreProbabilities) {
  DeepFmConfig config;
  DeepFmModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                    *dataset_->item_stats_schema, config);
  const data::CtrBatch batch = MakeCtrBatch(*dataset_, {0, 1, 2, 3, 4});
  for (double p : model.PredictCtr(batch)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_F(DeepBaselinesTest, ConcatDnnTrainsAndBeatsRandom) {
  // The paper's Figure 2 baseline: concat embeddings -> MLP.
  ConcatDnnConfig config;
  config.hidden_dims = {32, 16};
  ConcatDnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                       *dataset_->item_stats_schema, config);
  const auto losses = TrainCtrBaseline(&model, *dataset_, FastOptions());
  EXPECT_LT(losses.back(), losses.front());
  EXPECT_GT(EvaluateCtrBaselineAuc(model, *dataset_, dataset_->test_indices),
            0.65);
}

}  // namespace
}  // namespace atnn::baselines
