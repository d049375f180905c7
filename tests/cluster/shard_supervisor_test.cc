#include "cluster/shard_supervisor.h"

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "cluster/sharded_runtime.h"
#include "core/atnn.h"
#include "core/popularity.h"
#include "data/tmall.h"

namespace atnn::cluster {
namespace {

/// Same tiny deterministic world as the sharded-runtime tests; the
/// supervisor's contracts are all about state transitions, so every test
/// drives Step() by hand instead of the background thread.
class ShardSupervisorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(
        core::testing_helpers::MakeNormalizedTinyDataset());
    model_ = MakeModel().release();
    const auto group = core::SelectActiveUsers(*dataset_, 64);
    predictor_ = new core::PopularityPredictor(
        core::PopularityPredictor::Build(*model_, *dataset_, group));
  }

  static void TearDownTestSuite() {
    delete predictor_;
    predictor_ = nullptr;
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::unique_ptr<core::AtnnModel> MakeModel() {
    core::AtnnConfig config;
    config.tower =
        core::testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = 11;
    return std::make_unique<core::AtnnModel>(
        *dataset_->user_schema, *dataset_->item_profile_schema,
        *dataset_->item_stats_schema, config);
  }

  static runtime::ServingSnapshot MakeSnapshot() {
    runtime::ServingSnapshot snapshot;
    snapshot.model = runtime::Unowned(model_);
    snapshot.predictor = runtime::Unowned(predictor_);
    snapshot.item_profiles = runtime::Unowned(&dataset_->item_profiles);
    snapshot.tag = "test";
    return snapshot;
  }

  /// Two shards, chaos hooks armed.
  static std::unique_ptr<ShardedRuntime> MakeRuntime(
      size_t num_shards = 2,
      const runtime::ServingSnapshot& snapshot = MakeSnapshot()) {
    ShardedRuntimeConfig config;
    config.num_shards = num_shards;
    config.shard.num_workers = 2;
    config.shard.batcher.max_batch_size = 16;
    config.shard.batcher.max_delay_us = 500;
    config.shard.batcher.queue_capacity = 256;
    config.shard.fault_injection.enabled = true;
    auto runtime = std::make_unique<ShardedRuntime>(config);
    const auto version = runtime->PublishSharded(snapshot);
    EXPECT_TRUE(version.ok()) << version.status().ToString();
    return runtime;
  }

  /// Probe-row seed.
  static constexpr uint64_t kSeed = 0x5eed;

  static size_t StepUntil(ShardSupervisor* supervisor, size_t shard,
                          ShardHealth target, size_t max_steps = 64) {
    size_t steps = 0;
    while (supervisor->health(shard) != target && steps < max_steps) {
      supervisor->Step();
      ++steps;
    }
    return steps;
  }

  static data::TmallDataset* dataset_;
  static core::AtnnModel* model_;
  static core::PopularityPredictor* predictor_;
};

data::TmallDataset* ShardSupervisorTest::dataset_ = nullptr;
core::AtnnModel* ShardSupervisorTest::model_ = nullptr;
core::PopularityPredictor* ShardSupervisorTest::predictor_ = nullptr;

double CounterValue(const obs::MetricsSnapshot& snapshot,
                    const std::string& name) {
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return static_cast<double>(value);
  }
  return -1.0;
}

TEST_F(ShardSupervisorTest, HealthyShardsStayHealthyAndTrackLatency) {
  auto runtime = MakeRuntime();
  ShardSupervisor supervisor(runtime.get(), kSeed);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(supervisor.Step(), 2u);
  }
  EXPECT_EQ(supervisor.health(0), ShardHealth::kHealthy);
  EXPECT_EQ(supervisor.health(1), ShardHealth::kHealthy);
  EXPECT_GT(supervisor.probe_latency_us(0), 0.0)
      << "healthy probes must feed the latency EWMA";
  const auto metrics = supervisor.Collect();
  EXPECT_EQ(CounterValue(metrics, "supervisor.probes"), 10.0);
  EXPECT_EQ(CounterValue(metrics, "supervisor.probe_failures"), 0.0);
  EXPECT_EQ(CounterValue(metrics, "supervisor.transitions"), 0.0);
}

TEST_F(ShardSupervisorTest, WalksHealthyThroughSuspectToDead) {
  static_assert(ShardSupervisor::kConsecutiveToSuspect == 2 &&
                ShardSupervisor::kConsecutiveToDead == 4);
  auto runtime = MakeRuntime();
  ShardSupervisor supervisor(runtime.get(), kSeed);
  supervisor.Step();
  ASSERT_EQ(supervisor.health(0), ShardHealth::kHealthy);

  runtime->ShutDownShard(0);
  supervisor.Step();
  EXPECT_EQ(supervisor.health(0), ShardHealth::kHealthy)
      << "one failure is below kConsecutiveToSuspect=2";
  supervisor.Step();
  EXPECT_EQ(supervisor.health(0), ShardHealth::kSuspect);
  supervisor.Step();
  EXPECT_EQ(supervisor.health(0), ShardHealth::kSuspect)
      << "three failures are below kConsecutiveToDead=4";
  // The fourth failure condemns the shard, and the same round rebuilds it:
  // healthy -> suspect -> dead -> recovering.
  supervisor.Step();
  EXPECT_EQ(supervisor.health(0), ShardHealth::kRecovering);
  EXPECT_EQ(supervisor.health(1), ShardHealth::kHealthy)
      << "the healthy neighbour must be untouched";
  const auto metrics = supervisor.Collect();
  EXPECT_EQ(CounterValue(metrics, "supervisor.transitions"), 3.0);
  EXPECT_EQ(CounterValue(metrics, "supervisor.rebuilds"), 1.0);
}

TEST_F(ShardSupervisorTest, SuspectClearsOnOneHealthyProbe) {
  auto runtime = MakeRuntime();
  ShardSupervisor supervisor(runtime.get(), kSeed);
  // Degrade shard 0 (batches fail => answers fall to the fallback chain,
  // which probes count as unhealthy), but keep it alive.
  runtime->shard(0).fault_injector().SetFailAllBatches(true);
  supervisor.Step();
  supervisor.Step();
  ASSERT_EQ(supervisor.health(0), ShardHealth::kSuspect);

  runtime->shard(0).fault_injector().SetFailAllBatches(false);
  supervisor.Step();
  EXPECT_EQ(supervisor.health(0), ShardHealth::kHealthy)
      << "suspect debounces; one good probe clears it";
}

TEST_F(ShardSupervisorTest, DeadShardAutoRebuildsAndReearnsHealthy) {
  auto runtime = MakeRuntime();
  ShardSupervisor supervisor(runtime.get(), kSeed);
  runtime->ShutDownShard(0);

  // 4 failed probes -> dead -> same-step rebuild -> recovering.
  for (int round = 0; round < 4; ++round) supervisor.Step();
  EXPECT_EQ(supervisor.health(0), ShardHealth::kRecovering)
      << "the rebuild must fire in the round the shard goes dead";
  EXPECT_EQ(CounterValue(supervisor.Collect(), "supervisor.rebuilds"), 1.0);
  EXPECT_NE(runtime->breaker(0).state(), BreakerState::kClosed)
      << "a rebuilt shard must not be serving yet";

  // Probes walk the breaker closed and the health back to kHealthy.
  const size_t steps = StepUntil(&supervisor, 0, ShardHealth::kHealthy);
  EXPECT_LT(steps, 64u) << "rebuilt shard never re-earned healthy";
  EXPECT_EQ(runtime->breaker(0).state(), BreakerState::kClosed);

  // And the recovered shard serves fresh again.
  std::vector<int64_t> rows;
  for (int64_t row = 0; row < dataset_->item_profiles.num_rows(); ++row) {
    rows.push_back(row);
  }
  const auto results = runtime->ScoreBatch(rows);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().tier, runtime::ServingTier::kFresh);
  }
}

TEST_F(ShardSupervisorTest, RecoveringRelapsesToDeadAndRebuildsAgain) {
  auto runtime = MakeRuntime();
  ShardSupervisor supervisor(runtime.get(), kSeed);
  runtime->ShutDownShard(0);
  for (int round = 0; round < 4; ++round) supervisor.Step();
  ASSERT_EQ(supervisor.health(0), ShardHealth::kRecovering);

  // The rebuilt instance is sick too: recovering must relapse to dead and
  // trigger a second rebuild (whose instance is then allowed to be fine).
  runtime->shard(0).fault_injector().SetFailAllBatches(true);
  for (int round = 0; round < 4; ++round) supervisor.Step();
  EXPECT_GE(CounterValue(supervisor.Collect(), "supervisor.rebuilds"), 2.0)
      << "a relapse must re-enter the rebuild path";

  const size_t steps = StepUntil(&supervisor, 0, ShardHealth::kHealthy);
  EXPECT_LT(steps, 64u);
}

TEST_F(ShardSupervisorTest, ExternallyRevivedDeadShardReearnsThroughProbation) {
  // One shard serving a model of the test's own: while one of its weights
  // is NaN, every rebuild fails snapshot validation and the killed shard
  // stays dead.
  const std::unique_ptr<core::AtnnModel> model = MakeModel();
  runtime::ServingSnapshot snapshot = MakeSnapshot();
  snapshot.model = runtime::Unowned(model.get());
  auto runtime = MakeRuntime(1, snapshot);
  ShardSupervisor supervisor(runtime.get(), kSeed);
  float& weight = model->GeneratorParameters().front()->value().data()[0];
  const float sound = weight;
  weight = std::numeric_limits<float>::quiet_NaN();
  runtime->ShutDownShard(0);
  for (int round = 0; round < 5; ++round) supervisor.Step();
  ASSERT_EQ(supervisor.health(0), ShardHealth::kDead);
  EXPECT_EQ(CounterValue(supervisor.Collect(), "supervisor.rebuild_failures"),
            2.0)
      << "the rounds at and after the fourth failure each try a rebuild";

  // An operator revives it once the snapshot is sound again...
  weight = sound;
  ASSERT_TRUE(runtime->RebuildShard(0).ok());
  supervisor.Step();
  // ...but the supervisor still demands probation, not instant healthy.
  EXPECT_EQ(supervisor.health(0), ShardHealth::kRecovering);
  const size_t steps = StepUntil(&supervisor, 0, ShardHealth::kHealthy);
  EXPECT_LT(steps, 64u);
  EXPECT_EQ(runtime->breaker(0).state(), BreakerState::kClosed);
}

TEST_F(ShardSupervisorTest, StepTracksLiveResize) {
  auto runtime = MakeRuntime(2);
  ShardSupervisor supervisor(runtime.get(), kSeed);
  EXPECT_EQ(supervisor.Step(), 2u);
  const auto report = runtime->ResizeShards(4);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(supervisor.Step(), 4u)
      << "a probe round must cover shards added by a live resize";
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(supervisor.health(s), ShardHealth::kHealthy);
  }
}

TEST_F(ShardSupervisorTest, BackgroundThreadProbesAndStops) {
  auto runtime = MakeRuntime();
  ShardSupervisor supervisor(runtime.get(), kSeed);
  supervisor.Start();
  supervisor.Start();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  supervisor.Stop();
  const double probes =
      CounterValue(supervisor.Collect(), "supervisor.probes");
  EXPECT_GT(probes, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(CounterValue(supervisor.Collect(), "supervisor.probes"), probes)
      << "Stop() must actually stop the probe loop";
  supervisor.Stop();  // idempotent
}

}  // namespace
}  // namespace atnn::cluster
