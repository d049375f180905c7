// End-to-end integration test over the full production pipeline:
//   generate world -> train ATNN -> evaluate -> snapshot -> (new process)
//   load snapshot -> build popularity predictor -> export index ->
//   top-K agreement.
// Exercises every module boundary in one flow.

#include <cstdio>

#include <gtest/gtest.h>

#include "core/atnn.h"
#include "core/feature_adapter.h"
#include "core/popularity.h"
#include "core/trainer.h"
#include "core/user_clusters.h"
#include "data/tmall.h"
#include "metrics/metrics.h"
#include "serving/model_snapshot.h"
#include "serving/popularity_index.h"
#include "test_helpers.h"

namespace atnn::core {
namespace {

TEST(PipelineIntegrationTest, TrainSnapshotServeRoundTrip) {
  const std::string snapshot_path =
      testing::TempDir() + "/pipeline_snapshot.bin";
  const std::string index_path = testing::TempDir() + "/pipeline_index.bin";

  // --- offline: world + training ---
  data::TmallDataset dataset =
      testing_helpers::MakeNormalizedTinyDataset();
  AtnnConfig config;
  config.tower = testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 5;
  AtnnModel trainer_model(*dataset.user_schema,
                          *dataset.item_profile_schema,
                          *dataset.item_stats_schema, config);
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 256;
  options.learning_rate = 2e-3f;
  TrainAtnnModel(&trainer_model, dataset, options);
  const double auc = EvaluateAtnnAuc(trainer_model, dataset,
                                     dataset.test_indices,
                                     CtrPath::kGenerator);
  ASSERT_GT(auc, 0.6) << "training failed, pipeline test is meaningless";

  ASSERT_TRUE(serving::SaveModelSnapshot(&trainer_model, snapshot_path,
                                         "pipeline-v1")
                  .ok());

  // --- serving process: fresh model object, weights from disk ---
  AtnnModel serving_model(*dataset.user_schema,
                          *dataset.item_profile_schema,
                          *dataset.item_stats_schema, config);
  ASSERT_TRUE(serving::LoadModelSnapshot(&serving_model, snapshot_path,
                                         "pipeline-v1")
                  .ok());

  // Scores from the restored model must match the trainer's bitwise.
  const auto group = SelectActiveUsers(dataset, 100);
  const auto trainer_predictor =
      PopularityPredictor::Build(trainer_model, dataset, group);
  const auto serving_predictor =
      PopularityPredictor::Build(serving_model, dataset, group);
  const auto trainer_scores = trainer_predictor.ScoreItems(
      trainer_model, dataset, dataset.new_items);
  const auto serving_scores = serving_predictor.ScoreItems(
      serving_model, dataset, dataset.new_items);
  ASSERT_EQ(trainer_scores.size(), serving_scores.size());
  for (size_t i = 0; i < trainer_scores.size(); ++i) {
    ASSERT_EQ(trainer_scores[i], serving_scores[i]) << "item " << i;
  }

  // --- index persistence round trip ---
  serving::PopularityIndex index;
  index.BulkLoad(dataset.new_items, serving_scores);
  ASSERT_TRUE(index.SaveToFile(index_path).ok());
  auto loaded_or = serving::PopularityIndex::LoadFromFile(index_path);
  ASSERT_TRUE(loaded_or.ok());
  const auto top_before = index.TopK(10);
  const auto top_after = loaded_or->TopK(10);
  ASSERT_EQ(top_before.size(), top_after.size());
  for (size_t i = 0; i < top_before.size(); ++i) {
    EXPECT_EQ(top_before[i].first, top_after[i].first);
    EXPECT_EQ(top_before[i].second, top_after[i].second);
  }

  std::remove(snapshot_path.c_str());
  std::remove(index_path.c_str());
}

TEST(PipelineIntegrationTest, ClusteredAndGlobalPredictorsShareSnapshot) {
  data::TmallDataset dataset =
      testing_helpers::MakeNormalizedTinyDataset();
  AtnnConfig config;
  config.tower = testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 5;
  AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                  *dataset.item_stats_schema, config);
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 256;
  options.learning_rate = 2e-3f;
  TrainAtnnModel(&model, dataset, options);

  const auto group = SelectActiveUsers(dataset, 100);
  const auto global = PopularityPredictor::Build(model, dataset, group);
  KMeansConfig kmeans;
  kmeans.num_clusters = 4;
  const auto clustered =
      ClusteredPopularityPredictor::Build(model, dataset, group, kmeans);
  const auto global_scores =
      global.ScoreItems(model, dataset, dataset.new_items);
  const auto clustered_scores =
      clustered.ScoreItems(model, dataset, dataset.new_items);
  // Same model, same group: the two O(K) approximations must agree on the
  // broad ranking even though values differ.
  EXPECT_GT(metrics::SpearmanCorrelation(global_scores, clustered_scores),
            0.9);
}

}  // namespace
}  // namespace atnn::core
