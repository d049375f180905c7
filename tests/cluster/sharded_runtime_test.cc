#include "cluster/sharded_runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "core/atnn.h"
#include "core/popularity.h"
#include "data/tmall.h"
#include "serving/popularity_index.h"

namespace atnn::cluster {
namespace {

/// Same tiny world as the single-runtime tests: the sharded front-end's
/// correctness contract is "identical scores to the unsharded path", which
/// holds at (deterministic, seeded) initialization without training.
class ShardedRuntimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(
        core::testing_helpers::MakeNormalizedTinyDataset());
    model_ = MakeModel(11).release();
    predictor_ = new core::PopularityPredictor(BuildPredictor(*model_));
  }

  static std::unique_ptr<core::AtnnModel> MakeModel(uint64_t seed) {
    core::AtnnConfig config;
    config.tower =
        core::testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = seed;
    return std::make_unique<core::AtnnModel>(
        *dataset_->user_schema, *dataset_->item_profile_schema,
        *dataset_->item_stats_schema, config);
  }

  static core::PopularityPredictor BuildPredictor(
      const core::AtnnModel& model) {
    return core::PopularityPredictor::Build(
        model, *dataset_, core::SelectActiveUsers(*dataset_, 64));
  }

  static void TearDownTestSuite() {
    delete predictor_;
    predictor_ = nullptr;
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static runtime::ServingSnapshot MakeSnapshot() {
    runtime::ServingSnapshot snapshot;
    snapshot.model = runtime::Unowned(model_);
    snapshot.predictor = runtime::Unowned(predictor_);
    snapshot.item_profiles = runtime::Unowned(&dataset_->item_profiles);
    snapshot.tag = "test";
    return snapshot;
  }

  static ShardedRuntimeConfig SmallShardedConfig(size_t num_shards) {
    ShardedRuntimeConfig config;
    config.num_shards = num_shards;
    config.shard.num_workers = 2;
    config.shard.batcher.max_batch_size = 16;
    config.shard.batcher.max_delay_us = 500;
    config.shard.batcher.queue_capacity = 256;
    return config;
  }

  static std::shared_ptr<serving::PopularityIndex> FlatPrior(double value) {
    auto prior = std::make_shared<serving::PopularityIndex>();
    for (int64_t row = 0; row < dataset_->item_profiles.num_rows(); ++row) {
      prior->Upsert(row, value);
    }
    return prior;
  }

  /// Scores every row and expects each answer fresh, bitwise equal to
  /// `expected[row]` and, when `version` is set, served at that version.
  static void ExpectFreshBitwise(ShardedRuntime& runtime,
                                 const std::vector<double>& expected,
                                 std::optional<uint64_t> version) {
    const std::vector<int64_t> rows = AllRows();
    const auto results = runtime.ScoreBatch(rows);
    ASSERT_EQ(results.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kFresh)
          << "row " << rows[i];
      if (version.has_value()) {
        EXPECT_EQ(results[i].value().snapshot_version, *version)
            << "row " << rows[i];
      }
      EXPECT_EQ(results[i].value().score, expected[i]) << "row " << rows[i];
    }
  }

  static int64_t Counter(const ShardedRuntime& runtime,
                         const std::string& name) {
    for (const auto& [counter, value] : runtime.Collect().counters) {
      if (counter == name) return value;
    }
    return 0;
  }

  static std::vector<int64_t> AllRows() {
    std::vector<int64_t> rows(
        static_cast<size_t>(dataset_->item_profiles.num_rows()));
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<int64_t>(i);
    }
    return rows;
  }

  static data::TmallDataset* dataset_;
  static core::AtnnModel* model_;
  static core::PopularityPredictor* predictor_;
};

data::TmallDataset* ShardedRuntimeTest::dataset_ = nullptr;
core::AtnnModel* ShardedRuntimeTest::model_ = nullptr;
core::PopularityPredictor* ShardedRuntimeTest::predictor_ = nullptr;

TEST_F(ShardedRuntimeTest, ConfigValidationReturnsStatusNotAbort) {
  ShardedRuntimeConfig config = SmallShardedConfig(0);
  EXPECT_EQ(ShardedRuntime::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = SmallShardedConfig(2);
  config.default_deadline_us = -1;
  EXPECT_EQ(ShardedRuntime::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = SmallShardedConfig(2);
  config.shard.num_workers = 0;  // invalid per-shard template
  EXPECT_EQ(ShardedRuntime::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  const auto runtime = ShardedRuntime::Create(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_EQ((*runtime)->num_shards(), 2u);
  // The ring can never disagree with the shard count.
  EXPECT_EQ((*runtime)->ring().num_shards(), 2u);
}

TEST_F(ShardedRuntimeTest, MatchesUnshardedScoringAcrossShardCounts) {
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, dataset_->new_items);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    ShardedRuntime runtime(SmallShardedConfig(shards));
    const auto published = runtime.PublishSharded(MakeSnapshot());
    ASSERT_TRUE(published.ok()) << published.status().ToString();
    EXPECT_EQ(published.value(), 1u);
    EXPECT_EQ(runtime.snapshot_version(), 1u);

    const auto results = runtime.ScoreBatch(dataset_->new_items);
    ASSERT_EQ(results.size(), dataset_->new_items.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << shards << " shards: " << results[i].status().ToString();
      EXPECT_EQ(results[i].value().score, expected[i])
          << shards << " shards, item " << dataset_->new_items[i];
      EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kFresh);
      EXPECT_EQ(results[i].value().snapshot_version, 1u);
    }
    runtime.Shutdown();
  }
}

TEST_F(ShardedRuntimeTest, RoutesEveryRowToItsRingShard) {
  ShardedRuntime runtime(SmallShardedConfig(4));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());

  const std::vector<int64_t> rows = AllRows();
  std::vector<int64_t> expected_per_shard(4, 0);
  for (const int64_t row : rows) {
    ++expected_per_shard[runtime.ring().ShardFor(row)];
  }
  const auto results = runtime.ScoreBatch(rows);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  runtime.Shutdown();
  for (size_t s = 0; s < 4; ++s) {
    // With 400 catalog rows each shard owns some slice, and every request
    // must have been admitted by exactly the shard the ring names.
    EXPECT_GT(expected_per_shard[s], 0) << "degenerate ring split";
    EXPECT_EQ(runtime.shard(s).stats().enqueued, expected_per_shard[s])
        << "shard " << s;
  }
}

TEST_F(ShardedRuntimeTest, ScoreBeforePublishFailsCleanly) {
  ShardedRuntime runtime(SmallShardedConfig(2));
  const auto single = runtime.Score(0);
  EXPECT_EQ(single.status().code(), StatusCode::kFailedPrecondition);
  const auto batch = runtime.ScoreBatch({0, 1, 2});
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& result : batch) {
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST_F(ShardedRuntimeTest, OutOfRangeRowIsInvalidArgumentOthersStillServe) {
  ShardedRuntime runtime(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const int64_t valid = dataset_->new_items.front();
  const auto results = runtime.ScoreBatch(
      {-1, valid, dataset_->item_profiles.num_rows() + 5});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  EXPECT_EQ(results[2].status().code(), StatusCode::kInvalidArgument);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, DeadShardDegradesThroughPriorNeverErrors) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  config.prior = FlatPrior(0.25);
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());

  runtime.ShutDownShard(0);

  const std::vector<int64_t> rows = AllRows();
  const auto results = runtime.ScoreBatch(rows);
  int64_t degraded = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    // The partial-failure contract: a dead shard is a serving-quality
    // event, never a request failure.
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    if (runtime.ring().ShardFor(rows[i]) == 0) {
      EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kPrior);
      EXPECT_EQ(results[i].value().score, 0.25);
      ++degraded;
    } else {
      EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kFresh);
      EXPECT_EQ(results[i].value().score, expected[i]);
    }
  }
  EXPECT_GT(degraded, 0) << "shard 0 owned no rows; test is vacuous";
  runtime.Shutdown();

  const auto snapshot = runtime.Collect();
  int64_t shard_errors = 0;
  int64_t frontend_degraded = 0;
  bool dead_namespace = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "gather.shard_errors") shard_errors = value;
    if (name == "gather.degraded") frontend_degraded = value;
    if (name == "shard0.enqueued") dead_namespace = true;
  }
  EXPECT_EQ(shard_errors, degraded);
  EXPECT_EQ(frontend_degraded, degraded);
  // The dead shard's metrics stay collected: that is how an operator
  // attributes the degradation.
  EXPECT_TRUE(dead_namespace);
}

TEST_F(ShardedRuntimeTest, ExpiredBudgetDegradesEveryAnswerWithTier) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  config.prior = FlatPrior(0.125);
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());

  // A 1us whole-request budget cannot cover a batcher flush: every answer
  // must be degraded — and still tier-tagged, never an error.
  const auto results = runtime.ScoreBatch(dataset_->new_items, 1);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result.value().tier, runtime::ServingTier::kFresh);
  }
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, PublishAdvancesAllShardsInLockstep) {
  ShardedRuntime runtime(SmallShardedConfig(4));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const auto second = runtime.PublishSharded(MakeSnapshot());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 2u);
  EXPECT_EQ(runtime.snapshot_version(), 2u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(runtime.shard(s).snapshot_version(), 2u) << "shard " << s;
  }
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, CorruptPublishRejectsBeforeAnyShardSwaps) {
  ShardedRuntime runtime(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());

  runtime::ServingSnapshot corrupt = MakeSnapshot();
  corrupt.model = nullptr;
  EXPECT_EQ(runtime.PublishSharded(corrupt).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(runtime.snapshot_version(), 1u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(runtime.shard(s).snapshot_version(), 1u) << "shard " << s;
  }
  // Version 1 still serves.
  EXPECT_TRUE(runtime.Score(dataset_->new_items.front()).ok());
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, SingleRowScoreMatchesBatch) {
  ShardedRuntime runtime(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const int64_t item = dataset_->new_items.front();
  const auto single = runtime.Score(item);
  ASSERT_TRUE(single.ok());
  const auto batch = runtime.ScoreBatch({item});
  ASSERT_TRUE(batch.front().ok());
  EXPECT_EQ(single.value().score, batch.front().value().score);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, CollectKeepsShardNamespacesDisjointAndSorted) {
  ShardedRuntime runtime(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  for (const int64_t item : dataset_->new_items) {
    ASSERT_TRUE(runtime.Score(item).ok());
  }
  runtime.Shutdown();

  const auto snapshot = runtime.Collect();
  std::set<std::string> names;
  for (const auto& [name, value] : snapshot.counters) names.insert(name);
  // Front-end metrics live at the root; each shard's runtime metrics under
  // its own prefix.
  EXPECT_TRUE(names.count("gather.requests"));
  EXPECT_TRUE(names.count("shard0.enqueued"));
  EXPECT_TRUE(names.count("shard1.enqueued"));
  EXPECT_TRUE(names.count("shard0.completed_ok"));
  // Disjoint: concatenation produced no duplicate names.
  EXPECT_EQ(names.size(), snapshot.counters.size());
  EXPECT_TRUE(std::is_sorted(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  EXPECT_TRUE(std::is_sorted(
      snapshot.histograms.begin(), snapshot.histograms.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));

  int64_t total_enqueued = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "shard0.enqueued" || name == "shard1.enqueued") {
      total_enqueued += value;
    }
  }
  EXPECT_EQ(total_enqueued,
            static_cast<int64_t>(dataset_->new_items.size()));
}

TEST_F(ShardedRuntimeTest, ResizeRequiresAPublishedCatalog) {
  ShardedRuntime runtime(SmallShardedConfig(2));
  EXPECT_EQ(runtime.ResizeShards(0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(runtime.ResizeShards(4).status().code(),
            StatusCode::kFailedPrecondition);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, ResizeGrowMovesOnlyBoundedRemapRows) {
  ShardedRuntime runtime(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());

  const auto resized = runtime.ResizeShards(4);
  ASSERT_TRUE(resized.ok()) << resized.status().ToString();
  EXPECT_EQ(resized->from_shards, 2u);
  EXPECT_EQ(resized->to_shards, 4u);
  EXPECT_EQ(resized->total_rows, dataset_->item_profiles.num_rows());
  EXPECT_TRUE(resized->moved_only_within_bound);
  // Consistent hashing moves SOME rows (new shards must own a slice) but
  // strictly fewer than a naive mod-N reshuffle would.
  EXPECT_GT(resized->moved_rows, 0);
  EXPECT_LT(resized->moved_rows, resized->total_rows);
  EXPECT_EQ(resized->epoch, 2u);
  EXPECT_EQ(runtime.num_shards(), 4u);
  EXPECT_EQ(runtime.ring().num_shards(), 4u);

  // Every row still serves fresh with an unchanged score on the new
  // routing — including rows that moved shards — and both new shards take
  // their share of it.
  ExpectFreshBitwise(runtime, expected, 1);
  EXPECT_GT(runtime.shard(2).stats().enqueued, 0);
  EXPECT_GT(runtime.shard(3).stats().enqueued, 0);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, ResizeShrinkKeepsEveryRowServable) {
  ShardedRuntime runtime(SmallShardedConfig(4));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const auto resized = runtime.ResizeShards(2);
  ASSERT_TRUE(resized.ok()) << resized.status().ToString();
  EXPECT_TRUE(resized->moved_only_within_bound);
  EXPECT_EQ(runtime.num_shards(), 2u);

  const auto results = runtime.ScoreBatch(AllRows());
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tier, runtime::ServingTier::kFresh);
  }
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, ResizeToSameCountIsANoOp) {
  ShardedRuntime runtime(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const uint64_t epoch_before = runtime.epoch_id();
  const auto resized = runtime.ResizeShards(2);
  ASSERT_TRUE(resized.ok());
  EXPECT_EQ(resized->moved_rows, 0);
  EXPECT_EQ(resized->epoch, epoch_before);
  EXPECT_EQ(runtime.epoch_id(), epoch_before);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, ProbeShardReportsHealthThroughTiers) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  config.prior = FlatPrior(0.5);
  ShardedRuntime runtime(config);

  // Unpublished: vacuously healthy (nothing to probe), out of range is an
  // explicit error.
  EXPECT_TRUE(runtime.ProbeShard(0, /*salt=*/1).healthy());
  EXPECT_EQ(runtime.ProbeShard(9, /*salt=*/1).status.code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const ProbeReport healthy = runtime.ProbeShard(0, /*salt=*/2);
  EXPECT_TRUE(healthy.healthy());
  EXPECT_EQ(healthy.tier, runtime::ServingTier::kFresh);
  EXPECT_GE(healthy.latency_us, 0);

  // A shut-down shard cannot answer its own probe (the probe bypasses the
  // front-end's degraded fallback on purpose — it measures the shard, not
  // the fallback): the report is unhealthy.
  runtime.ShutDownShard(1);
  EXPECT_FALSE(runtime.ProbeShard(1, /*salt=*/3).healthy());
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, RebuildShardReadmitsOnlyThroughBreakerProbes) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  config.prior = FlatPrior(0.75);
  ShardedRuntime runtime(config);
  EXPECT_EQ(runtime.RebuildShard(0).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  EXPECT_EQ(runtime.RebuildShard(7).code(), StatusCode::kInvalidArgument);
  // A republish of the same table reuses every slice; the rebuild below
  // republishes the stored slice.
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());

  runtime.ShutDownShard(0);
  const uint64_t epoch_before = runtime.epoch_id();
  ASSERT_TRUE(runtime.RebuildShard(0).ok());
  EXPECT_EQ(runtime.epoch_id(), epoch_before + 1);

  // The rebuilt runtime holds a fresh slice, but the breaker was force-
  // opened: shard 0 traffic sheds tier-tagged until probes close it.
  EXPECT_EQ(runtime.breaker(0).state(), BreakerState::kOpen);
  std::vector<int64_t> shard0_rows;
  for (const int64_t row : AllRows()) {
    if (runtime.ring().ShardFor(row) == 0) shard0_rows.push_back(row);
  }
  ASSERT_FALSE(shard0_rows.empty());
  for (const auto& result : runtime.ScoreBatch(shard0_rows)) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result.value().tier, runtime::ServingTier::kFresh);
  }

  // Probe traffic walks the breaker open -> half-open -> closed; only
  // then does the shard serve fresh again.
  for (int probe = 0; probe < 8 &&
                      runtime.breaker(0).state() != BreakerState::kClosed;
       ++probe) {
    EXPECT_TRUE(runtime.ProbeShard(0, static_cast<uint64_t>(probe))
                    .status.ok());
  }
  EXPECT_EQ(runtime.breaker(0).state(), BreakerState::kClosed);
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, shard0_rows);
  const auto rebuilt = runtime.ScoreBatch(shard0_rows);
  for (size_t i = 0; i < shard0_rows.size(); ++i) {
    ASSERT_TRUE(rebuilt[i].ok()) << rebuilt[i].status().ToString();
    EXPECT_EQ(rebuilt[i].value().tier, runtime::ServingTier::kFresh);
    EXPECT_EQ(rebuilt[i].value().score, expected[i]);
  }

  const auto snapshot = runtime.Collect();
  int64_t rebuilds = 0;
  int64_t breaker_shed = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "gather.rebuilds") rebuilds = value;
    if (name == "gather.breaker_shed") breaker_shed = value;
  }
  EXPECT_EQ(rebuilds, 1);
  EXPECT_EQ(breaker_shed, static_cast<int64_t>(shard0_rows.size()));
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, DegradedBatchAnswersTierTaggedWithoutShards) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  config.prior = FlatPrior(0.375);
  ShardedRuntime runtime(config);

  // Before any publish a shed cannot bound-check, but it must still
  // answer: admission control runs ahead of serving state.
  const auto unpublished = runtime.DegradedBatch({0, 1});
  ASSERT_EQ(unpublished.size(), 2u);
  for (const auto& result : unpublished) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tier, runtime::ServingTier::kPrior);
    EXPECT_EQ(result.value().score, 0.375);
  }

  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const auto results = runtime.DegradedBatch(
      {-1, dataset_->new_items.front(), dataset_->item_profiles.num_rows()});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[1].value().tier, runtime::ServingTier::kPrior);
  EXPECT_EQ(results[2].status().code(), StatusCode::kInvalidArgument);
  // No shard saw any of it.
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(runtime.shard(s).stats().enqueued, 0) << "shard " << s;
  }
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, ShardRejectionKeepsEveryShardOnThePreviousVersion) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  config.shard.fault_injection.enabled = true;  // arms the corrupt publish
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());

  // Shard 1 rejects its slice after shard 0's already passed its checks:
  // no shard may swap, or the shards serve different versions for good.
  runtime.shard(1).fault_injector().ArmCorruptPublish();
  EXPECT_EQ(runtime.PublishSharded(MakeSnapshot()).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(runtime.shard(1).stats().publish_rejected, 1);
  EXPECT_EQ(runtime.snapshot_version(), 1u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(runtime.shard(s).snapshot_version(), 1u) << "shard " << s;
  }
  ExpectFreshBitwise(runtime, expected, 1);

  const auto next = runtime.PublishSharded(MakeSnapshot());
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.value(), 2u);
  ExpectFreshBitwise(runtime, expected, 2);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, RepublishOverTheSameTableServesEachModelBitwise) {
  const std::unique_ptr<core::AtnnModel> model_b = MakeModel(12);
  const core::PopularityPredictor predictor_b = BuildPredictor(*model_b);
  const std::vector<double> expected_a =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());
  const std::vector<double> expected_b =
      predictor_b.ScoreItems(*model_b, *dataset_, AllRows());
  ASSERT_NE(expected_a, expected_b) << "the two models must differ";

  ShardedRuntime runtime(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const uint64_t epoch = runtime.epoch_id();

  runtime::ServingSnapshot snapshot_b = MakeSnapshot();
  snapshot_b.model = runtime::Unowned(model_b.get());
  snapshot_b.predictor = runtime::Unowned(&predictor_b);
  const auto second = runtime.PublishSharded(snapshot_b);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value(), 2u);
  ExpectFreshBitwise(runtime, expected_b, 2);

  const auto third = runtime.PublishSharded(MakeSnapshot());
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third.value(), 3u);
  ExpectFreshBitwise(runtime, expected_a, 3);
  // Reused routing: no epoch swap.
  EXPECT_EQ(runtime.epoch_id(), epoch);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, AnotherTableWithTheSameRowCountIsSlicedAnew) {
  ASSERT_GT(dataset_->item_profiles.schema().num_numeric(), 0u);
  const int64_t changed_row = dataset_->new_items.front();
  data::TmallDataset changed = *dataset_;
  changed.item_profiles = data::SliceRows(dataset_->item_profiles, AllRows());
  changed.item_profiles.set_numeric(
      0, changed_row, changed.item_profiles.numeric(0, changed_row) + 1.0f);
  const std::vector<double> before =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());
  const std::vector<double> after =
      predictor_->ScoreItems(*model_, changed, AllRows());
  ASSERT_NE(before[static_cast<size_t>(changed_row)],
            after[static_cast<size_t>(changed_row)]);

  ShardedRuntime runtime(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  runtime::ServingSnapshot snapshot = MakeSnapshot();
  snapshot.item_profiles = runtime::Unowned(&changed.item_profiles);
  ASSERT_TRUE(runtime.PublishSharded(snapshot).ok());
  ExpectFreshBitwise(runtime, after, 2);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, ReusedPriorStaysKeyedToGlobalRows) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  auto prior = std::make_shared<serving::PopularityIndex>();
  for (const int64_t row : AllRows()) {
    prior->Upsert(row, 0.001 * static_cast<double>(row + 1));
  }
  config.prior = prior;
  // Every shard refuses its rows at admission and answers each one from
  // its own re-keyed prior, not the front-end's.
  config.shard.fault_injection.enabled = true;
  config.shard.fault_injection.enqueue_reject_probability = 1.0;
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());

  const std::vector<int64_t> rows = AllRows();
  const auto results = runtime.ScoreBatch(rows, 1'000'000);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kPrior)
        << "row " << rows[i];
    EXPECT_EQ(results[i].value().score, prior->Score(rows[i]).value())
        << "row " << rows[i];
  }
  EXPECT_EQ(Counter(runtime, "gather.degraded"), 0);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, PublishAfterResizeRecompactsThenReuses) {
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());
  ShardedRuntime runtime(SmallShardedConfig(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  ASSERT_TRUE(runtime.ResizeShards(3).ok());
  const uint64_t resized_epoch = runtime.epoch_id();

  // The resize left prefix-stable slices; the first publish re-compacts
  // them behind an epoch swap. Shards republished onto fresh runtimes
  // restart their version count, so answers are not checked by version.
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  EXPECT_EQ(runtime.epoch_id(), resized_epoch + 1);
  ExpectFreshBitwise(runtime, expected, std::nullopt);

  // The second reuses the compact routing: no epoch swap.
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  EXPECT_EQ(runtime.epoch_id(), resized_epoch + 1);
  ExpectFreshBitwise(runtime, expected, std::nullopt);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, StalledShardTimesOutIntoThePriorAndTripsItsBreaker) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  config.shard.fault_injection.enabled = true;  // allows the stall drill
  config.prior = FlatPrior(0.625);
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());
  const std::vector<int64_t> rows = AllRows();
  int64_t shard0_rows = 0;
  for (const int64_t row : rows) {
    if (runtime.ring().ShardFor(row) == 0) ++shard0_rows;
  }
  ASSERT_GT(shard0_rows, 0);

  runtime.shard(0).fault_injector().SetStallWorkers(true);
  const auto results = runtime.ScoreBatch(rows, 200'000);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    if (runtime.ring().ShardFor(rows[i]) == 0) {
      EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kPrior);
      EXPECT_EQ(results[i].value().score, 0.625);
    } else {
      EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kFresh);
      EXPECT_EQ(results[i].value().score, expected[i]);
    }
  }
  EXPECT_EQ(Counter(runtime, "gather.timeouts"), shard0_rows);

  // Every straggler counted against shard 0's breaker: the next batch
  // sheds its rows at scatter time.
  EXPECT_EQ(runtime.breaker(0).state(), BreakerState::kOpen);
  for (const auto& result : runtime.ScoreBatch(rows, 200'000)) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(Counter(runtime, "gather.breaker_shed"), shard0_rows);
  EXPECT_EQ(Counter(runtime, "gather.timeouts"), shard0_rows);

  runtime.shard(0).fault_injector().SetStallWorkers(false);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, BlockedScatterStaysInsideTheWholeBudget) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  config.shard.num_workers = 1;
  config.shard.batcher.queue_capacity = 16;
  config.shard.fault_injection.enabled = true;  // allows the stall drill
  config.prior = FlatPrior(0.375);
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const std::vector<int64_t> rows = AllRows();
  int64_t shard0_rows = 0;
  for (const int64_t row : rows) {
    if (runtime.ring().ShardFor(row) == 0) ++shard0_rows;
  }
  // More than the stalled worker's batch plus a full queue: the rest of
  // shard 0's burst must wait for space that never frees.
  ASSERT_GT(shard0_rows, 32);

  // Under kBlock the scatter leg waits for queue space, but one deadline
  // bounds the whole burst's wait. A deadline per row would hold the
  // gateway for one fan-out budget per blocked row.
  runtime.shard(0).fault_injector().SetStallWorkers(true);
  const auto start = std::chrono::steady_clock::now();
  const auto results = runtime.ScoreBatch(rows, 20'000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
  ASSERT_EQ(results.size(), rows.size());
  int64_t shard1_fresh = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    if (runtime.ring().ShardFor(rows[i]) == 0) {
      EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kPrior)
          << "row " << rows[i];
      EXPECT_EQ(results[i].value().score, 0.375) << "row " << rows[i];
    } else if (results[i].value().tier == runtime::ServingTier::kFresh) {
      ++shard1_fresh;
    }
  }
  // Every row is answered exactly once. A shard-0 row either waited out the
  // burst deadline for space (the shard answered it from its prior) or was
  // admitted and never answered (the gather timed it out into the
  // front-end prior). A shard-1 row is fresh, or expired in shard 1's queue
  // and answered from its prior, or, when the loaded worker misses the
  // whole-request budget, timed out at the gather. gather.timeouts counts
  // both shards' timeouts. Shard 1 also counts a row as expired when its
  // worker dequeues it after the gather gave up on it, so shard 1's share
  // is exact only up to its own expired count.
  const int64_t shard0_timeouts =
      shard0_rows - runtime.shard(0).stats().deadline_expired;
  const int64_t shard1_unfresh =
      static_cast<int64_t>(rows.size()) - shard0_rows - shard1_fresh;
  const int64_t shard1_timeouts =
      Counter(runtime, "gather.timeouts") - shard0_timeouts;
  EXPECT_GE(shard1_timeouts,
            shard1_unfresh - runtime.shard(1).stats().deadline_expired);
  EXPECT_LE(shard1_timeouts, shard1_unfresh);

  runtime.shard(0).fault_injector().SetStallWorkers(false);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, BurstOverQueueCapacityBlocksUntilEveryRowIsFresh) {
  ShardedRuntimeConfig config = SmallShardedConfig(1);
  config.shard.num_workers = 1;
  config.shard.batcher.queue_capacity = 16;  // one max_batch_size batch
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());
  ASSERT_GT(expected.size(), 16u);

  // The burst waits for space batch after batch; no row is refused.
  ExpectFreshBitwise(runtime, expected, 1);
  EXPECT_EQ(runtime.shard(0).stats().rejected, 0);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, BurstOverQueueCapacityRejectsExactlyTheOverflow) {
  constexpr int64_t kCapacity = 16;  // one max_batch_size batch
  ShardedRuntimeConfig config = SmallShardedConfig(1);
  config.shard.num_workers = 1;
  config.shard.batcher.queue_capacity = kCapacity;
  config.shard.batcher.admission = runtime::AdmissionPolicy::kRejectWithStatus;
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());
  const std::vector<int64_t> rows = AllRows();
  const int64_t overflow = static_cast<int64_t>(rows.size()) - kCapacity;
  ASSERT_GT(overflow, 0);

  // No worker can pop while the burst holds the batcher mutex, so the
  // burst fills the empty queue and every later row is refused — and
  // answered degraded by the shard, never as an error.
  const auto results = runtime.ScoreBatch(rows);
  ASSERT_EQ(results.size(), rows.size());
  int64_t fresh = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    if (results[i].value().tier == runtime::ServingTier::kFresh) {
      EXPECT_EQ(results[i].value().score, expected[i]) << "row " << rows[i];
      ++fresh;
    }
  }
  EXPECT_EQ(fresh, kCapacity);
  const runtime::StatsSnapshot stats = runtime.shard(0).stats();
  EXPECT_EQ(stats.enqueued, kCapacity);
  EXPECT_EQ(stats.rejected, overflow);
  EXPECT_EQ(Counter(runtime, "gather.shard_errors"), 0);
  runtime.Shutdown();
}

TEST_F(ShardedRuntimeTest, LateAnswersNeverLandInALaterBatch) {
  ShardedRuntimeConfig config = SmallShardedConfig(2);
  config.shard.fault_injection.enabled = true;  // allows the stall drill
  config.prior = FlatPrior(0.875);
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, AllRows());
  const std::vector<int64_t> rows = AllRows();
  // Fewer shard-0 rows than the breaker's kMinSamples, so shard 0 stays
  // routable after their timeouts.
  std::vector<int64_t> shard0_rows;
  for (const int64_t row : rows) {
    if (runtime.ring().ShardFor(row) == 0 &&
        static_cast<int64_t>(shard0_rows.size()) <
            CircuitBreaker::kMinSamples / 2) {
      shard0_rows.push_back(row);
    }
  }

  runtime.shard(0).fault_injector().SetStallWorkers(true);
  const auto abandoned = runtime.ScoreBatch(shard0_rows, 50'000);
  ASSERT_EQ(abandoned.size(), shard0_rows.size());
  ASSERT_GT(Counter(runtime, "gather.timeouts"), 0);
  ASSERT_EQ(runtime.breaker(0).state(), BreakerState::kClosed);

  // Shard 0 now answers the abandoned burst while the next batch is in
  // flight. In reverse order every slot index names a different row, so
  // an answer that landed in the wrong batch would be a wrong score.
  runtime.shard(0).fault_injector().SetStallWorkers(false);
  const std::vector<int64_t> reversed(rows.rbegin(), rows.rend());
  const auto results = runtime.ScoreBatch(reversed, 0);
  ASSERT_EQ(results.size(), reversed.size());
  for (size_t i = 0; i < reversed.size(); ++i) {
    const auto row = static_cast<size_t>(reversed[i]);
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kFresh)
        << "row " << row;
    EXPECT_EQ(results[i].value().score, expected[row]) << "row " << row;
  }
  runtime.Shutdown();
}

}  // namespace
}  // namespace atnn::cluster
