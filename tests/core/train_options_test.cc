// TrainOptions::Validate and the streaming/incremental trainer switches.
//
// The Validate death tests are regressions: before the check was added,
// epochs=0 silently returned an empty history, a negative learning rate
// trained *away* from the gradient, and a NaN rate corrupted every
// parameter on the first step — every trainer, the CTR baselines
// included, now refuses up front.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baseline_trainer.h"
#include "baselines/wide_deep.h"
#include "core/multitask_atnn.h"
#include "core/multitask_trainer.h"
#include "core/negative_cache.h"
#include "core/trainer.h"
#include "data/eleme.h"
#include "nn/tensor.h"
#include "test_helpers.h"

namespace atnn::core {
namespace {

using testing_helpers::MakeNormalizedTinyDataset;
using testing_helpers::TinyTowerConfig;

TrainOptions SaneOptions() {
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 64;
  options.learning_rate = 1e-3f;
  return options;
}

TEST(TrainOptionsValidateTest, AcceptsDefaultsAndSaneConfigs) {
  EXPECT_TRUE(TrainOptions{}.Validate().ok());
  EXPECT_TRUE(SaneOptions().Validate().ok());
}

TEST(TrainOptionsValidateTest, RejectsNonPositiveEpochs) {
  TrainOptions options = SaneOptions();
  options.epochs = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.epochs = -3;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(TrainOptionsValidateTest, RejectsNonPositiveBatchSize) {
  TrainOptions options = SaneOptions();
  options.batch_size = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.batch_size = -1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(TrainOptionsValidateTest, RejectsBadLearningRate) {
  TrainOptions options = SaneOptions();
  options.learning_rate = 0.0f;  // Adam refuses it; Validate must first
  EXPECT_FALSE(options.Validate().ok());
  options.learning_rate = -1e-3f;
  EXPECT_FALSE(options.Validate().ok());
  options.learning_rate = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(options.Validate().ok());
  options.learning_rate = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(options.Validate().ok());
}

TEST(TrainOptionsValidateTest, RejectsCrossBatchNegativesWithoutCache) {
  TrainOptions options = SaneOptions();
  options.cross_batch_negatives = true;
  EXPECT_FALSE(options.Validate().ok());
  NegativeCache cache(2);
  options.negative_cache = &cache;
  EXPECT_TRUE(options.Validate().ok());
}

// --- every trainer refuses invalid options up front ---

class TrainerValidationTest : public testing::Test {
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

data::TmallDataset* TrainerValidationTest::dataset_ = nullptr;

AtnnConfig TinyAtnnConfig() {
  AtnnConfig config;
  config.tower = TinyTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 5;
  return config;
}

TEST_F(TrainerValidationTest, TwoTowerTrainerRejectsInvalidOptions) {
  TwoTowerConfig config;
  config.tower = TinyTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 5;
  TwoTowerModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                      *dataset_->item_stats_schema, config);
  TrainOptions options = SaneOptions();
  options.epochs = 0;
  EXPECT_DEATH(TrainTwoTowerModel(&model, *dataset_, options),
               "invalid TrainOptions");
}

TEST_F(TrainerValidationTest, AtnnTrainerRejectsInvalidOptions) {
  AtnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, TinyAtnnConfig());
  TrainOptions options = SaneOptions();
  options.learning_rate = -1e-3f;
  EXPECT_DEATH(TrainAtnnModel(&model, *dataset_, options),
               "invalid TrainOptions");
  options = SaneOptions();
  options.batch_size = 0;
  EXPECT_DEATH(
      TrainAtnnOnIndices(&model, *dataset_, dataset_->train_indices, options),
      "invalid TrainOptions");
}

TEST_F(TrainerValidationTest, BaselineTrainerRejectsInvalidOptions) {
  baselines::WideDeepConfig config;
  config.deep_dims = {16};
  baselines::WideDeepModel model(*dataset_->user_schema,
                                 *dataset_->item_profile_schema,
                                 *dataset_->item_stats_schema, config);
  TrainOptions options = SaneOptions();
  options.epochs = 0;
  EXPECT_DEATH(baselines::TrainCtrBaseline(&model, *dataset_, options),
               "invalid TrainOptions");
  options = SaneOptions();
  options.learning_rate = 0.0f;
  EXPECT_DEATH(baselines::TrainCtrBaseline(&model, *dataset_, options),
               "invalid TrainOptions");
}

TEST(MultiTaskTrainerValidationTest, RejectsInvalidOptions) {
  data::ElemeConfig world;
  world.num_restaurants = 200;
  world.num_new_restaurants = 40;
  world.num_cells = 10;
  world.seed = 4242;
  data::ElemeDataset dataset = data::GenerateElemeDataset(world);
  NormalizeElemeInPlace(&dataset);
  MultiTaskAtnnConfig config;
  config.tower = TinyTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 5;
  MultiTaskAtnnModel model(*dataset.restaurant_profile_schema,
                           *dataset.restaurant_stats_schema,
                           *dataset.user_group_schema, config);
  TrainOptions options = SaneOptions();
  options.batch_size = 0;
  EXPECT_DEATH(TrainMultiTaskAtnn(&model, dataset, options),
               "invalid TrainOptions");
}

// --- the cross-batch negative FIFO cache ---

TEST(NegativeCacheTest, StartsEmpty) {
  NegativeCache cache(3);
  EXPECT_EQ(cache.batches(), 0u);
  EXPECT_EQ(cache.total_rows(), 0);
  EXPECT_EQ(cache.capacity(), 3u);
}

TEST(NegativeCacheTest, FifoEvictsOldestBatch) {
  NegativeCache cache(2);
  cache.Push(nn::Tensor::Full(4, 3, 1.0f));
  cache.Push(nn::Tensor::Full(2, 3, 2.0f));
  EXPECT_EQ(cache.total_rows(), 6);
  cache.Push(nn::Tensor::Full(5, 3, 3.0f));  // evicts the 4-row batch
  EXPECT_EQ(cache.batches(), 2u);
  EXPECT_EQ(cache.total_rows(), 7);
  // Oldest surviving batch first: columns 0..1 hold value 2, rest value 3.
  const nn::Tensor gathered = cache.GatherTransposed();
  EXPECT_EQ(gathered.rows(), 3);
  EXPECT_EQ(gathered.cols(), 7);
  EXPECT_FLOAT_EQ(gathered.row_ptr(0)[0], 2.0f);
  EXPECT_FLOAT_EQ(gathered.row_ptr(0)[1], 2.0f);
  EXPECT_FLOAT_EQ(gathered.row_ptr(0)[2], 3.0f);
  EXPECT_FLOAT_EQ(gathered.row_ptr(2)[6], 3.0f);
}

TEST(NegativeCacheTest, ClearResets) {
  NegativeCache cache(2);
  cache.Push(nn::Tensor::Full(4, 3, 1.0f));
  cache.Clear();
  EXPECT_EQ(cache.batches(), 0u);
  EXPECT_EQ(cache.total_rows(), 0);
  // A different width is fine after Clear.
  cache.Push(nn::Tensor::Full(2, 5, 1.0f));
  EXPECT_EQ(cache.GatherTransposed().rows(), 5);
}

// --- streaming switches: off is bitwise-off, on changes the trajectory ---

bool HistoriesBitwiseEqual(const std::vector<EpochStats>& a,
                           const std::vector<EpochStats>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(EpochStats)) ==
              0);
}

TEST_F(TrainerValidationTest, TrainOnIndicesMatchesBatchTrainerBitwise) {
  AtnnModel batch_model(*dataset_->user_schema,
                        *dataset_->item_profile_schema,
                        *dataset_->item_stats_schema, TinyAtnnConfig());
  AtnnModel indices_model(*dataset_->user_schema,
                          *dataset_->item_profile_schema,
                          *dataset_->item_stats_schema, TinyAtnnConfig());
  TrainOptions options = SaneOptions();
  const auto batch_history = TrainAtnnModel(&batch_model, *dataset_, options);
  const auto indices_history = TrainAtnnOnIndices(
      &indices_model, *dataset_, dataset_->train_indices, options);
  EXPECT_TRUE(HistoriesBitwiseEqual(batch_history, indices_history));
}

TEST_F(TrainerValidationTest, CrossBatchNegativesChangeTheDStep) {
  AtnnModel plain(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, TinyAtnnConfig());
  AtnnModel cbns(*dataset_->user_schema, *dataset_->item_profile_schema,
                 *dataset_->item_stats_schema, TinyAtnnConfig());
  TrainOptions options = SaneOptions();
  const auto plain_history = TrainAtnnModel(&plain, *dataset_, options);
  NegativeCache cache(4);
  options.cross_batch_negatives = true;
  options.negative_cache = &cache;
  const auto cbns_history = TrainAtnnModel(&cbns, *dataset_, options);
  ASSERT_EQ(plain_history.size(), cbns_history.size());
  // The first batch has an empty cache (no extra term), but from batch 2 on
  // the D step trains against cached negatives — the trajectories diverge.
  EXPECT_NE(plain_history[0].loss_i, cbns_history[0].loss_i);
  EXPECT_GT(cache.total_rows(), 0);
  for (const auto& epoch : cbns_history) {
    EXPECT_TRUE(std::isfinite(epoch.loss_i));
    EXPECT_TRUE(std::isfinite(epoch.loss_g));
  }
}

TEST_F(TrainerValidationTest, OneBackpropAlternatesAndStaysFinite) {
  AtnnModel both(*dataset_->user_schema, *dataset_->item_profile_schema,
                 *dataset_->item_stats_schema, TinyAtnnConfig());
  AtnnModel alternating(*dataset_->user_schema,
                        *dataset_->item_profile_schema,
                        *dataset_->item_stats_schema, TinyAtnnConfig());
  TrainOptions options = SaneOptions();
  const auto both_history = TrainAtnnModel(&both, *dataset_, options);
  options.one_backprop = true;
  const auto alternating_history =
      TrainAtnnModel(&alternating, *dataset_, options);
  ASSERT_EQ(both_history.size(), alternating_history.size());
  EXPECT_FALSE(HistoriesBitwiseEqual(both_history, alternating_history));
  for (const auto& epoch : alternating_history) {
    EXPECT_TRUE(std::isfinite(epoch.loss_i));
    EXPECT_TRUE(std::isfinite(epoch.loss_g));
    EXPECT_TRUE(std::isfinite(epoch.loss_s));
  }
}

}  // namespace
}  // namespace atnn::core
