// Tests of the training pipeline: span-based batching, empty-split
// handling, and the telemetry every trainer reports through the shared
// epoch loop.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baseline_trainer.h"
#include "baselines/wide_deep.h"
#include "core/atnn.h"
#include "core/multitask_trainer.h"
#include "core/trainer.h"
#include "core/two_tower.h"
#include "obs/metrics_registry.h"
#include "test_helpers.h"

namespace atnn::core {
namespace {

using testing_helpers::MakeNormalizedTinyDataset;
using testing_helpers::TinyTowerConfig;

// The spans must cut exactly the contiguous chunks a copying splitter
// would: full batch_size chunks in order, the remainder last.
TEST(MakeBatchSpansTest, MatchesMakeBatches) {
  const std::vector<int64_t> indices = {4, 8, 15, 16, 23, 42, 7};
  const std::vector<std::pair<int, std::vector<std::vector<int64_t>>>>
      expected = {
          {1, {{4}, {8}, {15}, {16}, {23}, {42}, {7}}},
          {2, {{4, 8}, {15, 16}, {23, 42}, {7}}},
          {3, {{4, 8, 15}, {16, 23, 42}, {7}}},
          {7, {{4, 8, 15, 16, 23, 42, 7}}},
          {100, {{4, 8, 15, 16, 23, 42, 7}}},
      };
  for (const auto& [batch_size, chunks] : expected) {
    const auto views = MakeBatchSpans(indices, batch_size);
    ASSERT_EQ(views.size(), chunks.size()) << "batch_size " << batch_size;
    for (size_t b = 0; b < views.size(); ++b) {
      EXPECT_EQ(std::vector<int64_t>(views[b].begin(), views[b].end()),
                chunks[b])
          << "batch_size " << batch_size << " chunk " << b;
    }
  }
}

TEST(MakeBatchSpansTest, ViewsAliasTheIndexVector) {
  const std::vector<int64_t> indices = {1, 2, 3, 4, 5};
  const auto views = MakeBatchSpans(indices, 2);
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0].data(), indices.data());
  EXPECT_EQ(views[1].data(), indices.data() + 2);
  EXPECT_EQ(views[2].size(), 1u);
}

TEST(MakeBatchSpansTest, EmptyInputYieldsNoBatches) {
  const std::vector<int64_t> empty;
  EXPECT_TRUE(MakeBatchSpans(empty, 16).empty());
}

class TrainerPipelineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(MakeNormalizedTinyDataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static TwoTowerConfig TwoTowerCfg() {
    TwoTowerConfig config;
    config.tower = TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = 5;
    return config;
  }

  static AtnnConfig AtnnCfg() {
    AtnnConfig config;
    config.tower = TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.lambda = 0.1f;
    config.seed = 5;
    return config;
  }

  static baselines::WideDeepConfig BaselineCfg() {
    baselines::WideDeepConfig config;
    config.deep_dims = {32, 16};
    return config;
  }

  static TrainOptions FastOptions() {
    TrainOptions options;
    options.epochs = 2;
    options.batch_size = 256;
    options.learning_rate = 2e-3f;
    return options;
  }

  static data::TmallDataset* dataset_;
};

data::TmallDataset* TrainerPipelineTest::dataset_ = nullptr;

TEST_F(TrainerPipelineTest, EmptyTrainSplitReturnsEmptyHistory) {
  data::TmallDataset empty_split = *dataset_;
  empty_split.train_indices.clear();

  TwoTowerModel two_tower(*dataset_->user_schema,
                          *dataset_->item_profile_schema,
                          *dataset_->item_stats_schema, TwoTowerCfg());
  const auto tt_history =
      TrainTwoTowerModel(&two_tower, empty_split, FastOptions());
  EXPECT_TRUE(tt_history.empty());  // no NaN epoch rows from 0/0

  AtnnModel atnn(*dataset_->user_schema, *dataset_->item_profile_schema,
                 *dataset_->item_stats_schema, AtnnCfg());
  const auto atnn_history = TrainAtnnModel(&atnn, empty_split, FastOptions());
  EXPECT_TRUE(atnn_history.empty());

  baselines::WideDeepModel baseline(*dataset_->user_schema,
                                    *dataset_->item_profile_schema,
                                    *dataset_->item_stats_schema,
                                    BaselineCfg());
  EXPECT_TRUE(
      baselines::TrainCtrBaseline(&baseline, empty_split, FastOptions())
          .empty());
}

data::ElemeDataset* NewNormalizedElemeWorld() {
  data::ElemeConfig config;
  config.num_restaurants = 1200;
  config.num_new_restaurants = 200;
  config.num_cells = 40;
  config.seed = 4242;
  auto* dataset = new data::ElemeDataset(GenerateElemeDataset(config));
  NormalizeElemeInPlace(dataset);
  return dataset;
}

MultiTaskAtnnConfig MtCfg() {
  MultiTaskAtnnConfig config;
  config.tower.kind = nn::TowerKind::kDeepCross;
  config.tower.deep_dims = {32, 16};
  config.tower.cross_layers = 2;
  config.tower.output_dim = 12;
  config.adversarial = true;
  config.seed = 5;
  return config;
}

class MultiTaskPipelineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() { dataset_ = NewNormalizedElemeWorld(); }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static data::ElemeDataset* dataset_;
};

data::ElemeDataset* MultiTaskPipelineTest::dataset_ = nullptr;

TEST_F(MultiTaskPipelineTest, EmptyTrainSplitReturnsEmptyHistory) {
  data::ElemeDataset empty_split = *dataset_;
  empty_split.train_indices.clear();
  MultiTaskAtnnModel model(*dataset_->restaurant_profile_schema,
                           *dataset_->restaurant_stats_schema,
                           *dataset_->user_group_schema, MtCfg());
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 64;
  EXPECT_TRUE(TrainMultiTaskAtnn(&model, empty_split, options).empty());
}

// --- telemetry: every trainer reports through the one epoch loop ---

enum class TrainerKind { kTwoTower, kAtnn, kMultiTask, kBaseline };

const char* TrainerKindName(
    const testing::TestParamInfo<TrainerKind>& info) {
  switch (info.param) {
    case TrainerKind::kTwoTower:
      return "two_tower";
    case TrainerKind::kAtnn:
      return "atnn";
    case TrainerKind::kMultiTask:
      return "multitask";
    case TrainerKind::kBaseline:
      return "baseline";
  }
  return "unknown";
}

class TrainTelemetryTest : public TrainerPipelineTest,
                           public testing::WithParamInterface<TrainerKind> {
 protected:
  static void SetUpTestSuite() {
    TrainerPipelineTest::SetUpTestSuite();
    eleme_ = NewNormalizedElemeWorld();
  }
  static void TearDownTestSuite() {
    TrainerPipelineTest::TearDownTestSuite();
    delete eleme_;
    eleme_ = nullptr;
  }

  /// Trains the parameterized trainer and returns its training row count
  /// and the last history row as (loss name, value).
  static std::pair<size_t, std::vector<std::pair<std::string, double>>>
  Train(const TrainOptions& options) {
    const data::TmallDataset& tmall = *dataset_;
    switch (GetParam()) {
      case TrainerKind::kTwoTower: {
        TwoTowerModel model(*tmall.user_schema, *tmall.item_profile_schema,
                            *tmall.item_stats_schema, TwoTowerCfg());
        const EpochStats last =
            TrainTwoTowerModel(&model, tmall, options).back();
        return {tmall.train_indices.size(), {{"loss_i", last.loss_i}}};
      }
      case TrainerKind::kAtnn: {
        AtnnModel model(*tmall.user_schema, *tmall.item_profile_schema,
                        *tmall.item_stats_schema, AtnnCfg());
        const EpochStats last = TrainAtnnModel(&model, tmall, options).back();
        return {tmall.train_indices.size(),
                {{"loss_i", last.loss_i},
                 {"loss_g", last.loss_g},
                 {"loss_s", last.loss_s}}};
      }
      case TrainerKind::kMultiTask: {
        MultiTaskAtnnModel model(*eleme_->restaurant_profile_schema,
                                 *eleme_->restaurant_stats_schema,
                                 *eleme_->user_group_schema, MtCfg());
        const MultiTaskEpochStats last =
            TrainMultiTaskAtnn(&model, *eleme_, options).back();
        return {eleme_->train_indices.size(),
                {{"loss_gmv_d", last.loss_gmv_d},
                 {"loss_vppv_d", last.loss_vppv_d},
                 {"loss_gmv_g", last.loss_gmv_g},
                 {"loss_vppv_g", last.loss_vppv_g},
                 {"loss_s", last.loss_s}}};
      }
      case TrainerKind::kBaseline: {
        baselines::WideDeepModel model(*tmall.user_schema,
                                       *tmall.item_profile_schema,
                                       *tmall.item_stats_schema,
                                       BaselineCfg());
        const double last =
            baselines::TrainCtrBaseline(&model, tmall, options).back();
        return {tmall.train_indices.size(), {{"loss", last}}};
      }
    }
    return {};
  }

  static data::ElemeDataset* eleme_;
};

data::ElemeDataset* TrainTelemetryTest::eleme_ = nullptr;

TEST_P(TrainTelemetryTest, RecordsStepsEpochsAndLosses) {
  obs::MetricsRegistry registry;
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 100;
  options.learning_rate = 1e-3f;
  options.metrics = &registry;
  const auto [rows, last_losses] = Train(options);
  const auto steps = static_cast<int64_t>(
      options.epochs * ((rows + options.batch_size - 1) / options.batch_size));
  EXPECT_EQ(registry.GetCounter("train.steps").Value(), steps);
  EXPECT_EQ(registry.GetHistogram("train.step_us").Snapshot().count(), steps);
  EXPECT_EQ(registry.GetHistogram("train.epoch_ms").Snapshot().count(),
            options.epochs);
  EXPECT_EQ(registry.GetGauge("train.epoch").Value(), options.epochs);
  ASSERT_FALSE(last_losses.empty());
  for (const auto& [name, value] : last_losses) {
    EXPECT_EQ(registry.GetGauge("train." + name).Value(), value) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Trainers, TrainTelemetryTest,
                         testing::Values(TrainerKind::kTwoTower,
                                         TrainerKind::kAtnn,
                                         TrainerKind::kMultiTask,
                                         TrainerKind::kBaseline),
                         TrainerKindName);

}  // namespace
}  // namespace atnn::core
