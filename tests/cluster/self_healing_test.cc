// End-to-end self-healing drills over the cluster layer: concurrent
// clients replay a skewed stream through a ShardedRuntime while the
// cluster is resized, killed, and healed underneath them. The invariant
// under every drill is the serving contract — zero dropped or errored
// requests, every answer tier-tagged — plus the specific recovery
// property each drill exercises (bounded-remap moves, supervised
// rebuild, breaker-gated re-admission).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "cluster/shard_supervisor.h"
#include "cluster/sharded_runtime.h"
#include "cluster/tenant_registry.h"
#include "core/atnn.h"
#include "core/popularity.h"
#include "data/tmall.h"
#include "serving/popularity_index.h"

namespace atnn::cluster {
namespace {

class SelfHealingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(
        core::testing_helpers::MakeNormalizedTinyDataset());
    core::AtnnConfig config;
    config.tower =
        core::testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = 11;
    model_ = new core::AtnnModel(*dataset_->user_schema,
                                 *dataset_->item_profile_schema,
                                 *dataset_->item_stats_schema, config);
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

  static runtime::ServingSnapshot MakeSnapshot() {
    runtime::ServingSnapshot snapshot;
    snapshot.model = runtime::Unowned(model_);
    snapshot.predictor = runtime::Unowned(predictor_);
    snapshot.item_profiles = runtime::Unowned(&dataset_->item_profiles);
    snapshot.tag = "self-healing";
    return snapshot;
  }

  static std::shared_ptr<serving::PopularityIndex> FlatPrior(double value) {
    auto prior = std::make_shared<serving::PopularityIndex>();
    for (int64_t row = 0; row < dataset_->item_profiles.num_rows(); ++row) {
      prior->Upsert(row, value);
    }
    return prior;
  }

  static ShardedRuntimeConfig Config(size_t num_shards) {
    ShardedRuntimeConfig config;
    config.num_shards = num_shards;
    config.shard.num_workers = 2;
    config.shard.batcher.max_batch_size = 16;
    config.shard.batcher.max_delay_us = 200;
    config.shard.batcher.queue_capacity = 1024;
    config.prior = FlatPrior(0.5);
    return config;
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

data::TmallDataset* SelfHealingTest::dataset_ = nullptr;
core::AtnnModel* SelfHealingTest::model_ = nullptr;
core::PopularityPredictor* SelfHealingTest::predictor_ = nullptr;

/// Live resize under concurrent client load: two client threads hammer
/// the full catalog while the runtime is resized 2 -> 4 -> 3. The RCU
/// epoch swap must drain in-flight batches on the old routing, so not a
/// single request may drop or error, and every move must stay inside the
/// consistent-hash remap bound.
TEST_F(SelfHealingTest, ResizeUnderConcurrentLoadNeverDropsARequest) {
  ShardedRuntime runtime(Config(2));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());
  const std::vector<int64_t> rows = AllRows();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> untagged{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        for (const auto& result : runtime.ScoreBatch(rows)) {
          if (!result.ok()) {
            errors.fetch_add(1);
            continue;
          }
          ok.fetch_add(1);
          if (static_cast<size_t>(result.value().tier) >=
              runtime::kNumServingTiers) {
            untagged.fetch_add(1);
          }
        }
      }
    });
  }
  // Let the clients spin up before the first swap.
  while (ok.load() + errors.load() <
         static_cast<int64_t>(rows.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto grow = runtime.ResizeShards(4);
  ASSERT_TRUE(grow.ok()) << grow.status().ToString();
  EXPECT_TRUE(grow->moved_only_within_bound);
  EXPECT_EQ(runtime.num_shards(), 4u);

  const int64_t after_grow = ok.load() + errors.load();
  while (ok.load() + errors.load() <
         after_grow + static_cast<int64_t>(rows.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto shrink = runtime.ResizeShards(3);
  ASSERT_TRUE(shrink.ok()) << shrink.status().ToString();
  EXPECT_TRUE(shrink->moved_only_within_bound);
  EXPECT_EQ(runtime.num_shards(), 3u);

  const int64_t after_shrink = ok.load() + errors.load();
  while (ok.load() + errors.load() <
         after_shrink + static_cast<int64_t>(rows.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& client : clients) client.join();
  runtime.Shutdown();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(untagged.load(), 0);
  EXPECT_GT(ok.load(), 0);

  // Post-resize scores are still byte-identical to the unsharded path.
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, rows);
  ShardedRuntime verify(Config(3));
  ASSERT_TRUE(verify.PublishSharded(MakeSnapshot()).ok());
  const auto results = verify.ScoreBatch(rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_NEAR(results[i].value().score, expected[i], 1e-9);
  }
  verify.Shutdown();
}

/// The full kill -> detect -> rebuild -> probation -> healthy loop with a
/// background supervisor, while a client thread keeps scoring. After the
/// supervisor reports healthy, the killed shard's rows must serve fresh
/// again — the cluster healed without any operator call.
TEST_F(SelfHealingTest, KilledShardAutoRecoversToFreshUnderLoad) {
  constexpr size_t kShards = 3;
  constexpr size_t kVictim = 1;
  ShardedRuntime runtime(Config(kShards));
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());

  ShardSupervisor supervisor(&runtime, /*seed=*/0x5eedULL);
  supervisor.Start();

  const std::vector<int64_t> rows = AllRows();
  std::atomic<bool> stop{false};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> untagged{0};
  std::thread client([&] {
    while (!stop.load()) {
      for (const auto& result : runtime.ScoreBatch(rows)) {
        if (!result.ok()) {
          errors.fetch_add(1);
        } else if (static_cast<size_t>(result.value().tier) >=
                   runtime::kNumServingTiers) {
          untagged.fetch_add(1);
        }
      }
    }
  });

  runtime.ShutDownShard(kVictim);

  // The supervisor must walk the victim dead -> rebuilt -> recovering ->
  // healthy on its own; bounded wait, generous for sanitizer builds.
  // "Recovered" is rebuild evidence AND health — the health field alone
  // starts at kHealthy and would read as recovered before detection.
  const auto rebuilds_count = [&supervisor] {
    for (const auto& [name, value] : supervisor.Collect().counters) {
      if (name == "supervisor.rebuilds") return value;
    }
    return int64_t{0};
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((rebuilds_count() < 1 ||
          supervisor.health(kVictim) != ShardHealth::kHealthy) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  client.join();
  supervisor.Stop();

  ASSERT_EQ(supervisor.health(kVictim), ShardHealth::kHealthy)
      << "supervisor never healed the killed shard";
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(untagged.load(), 0);

  // Healed means healed: every row of the victim's slice serves fresh.
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, rows);
  const auto results = runtime.ScoreBatch(rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].value().tier, runtime::ServingTier::kFresh)
        << "row " << rows[i] << " (shard "
        << runtime.ring().ShardFor(rows[i]) << ")";
    EXPECT_NEAR(results[i].value().score, expected[i], 1e-9);
  }

  int64_t rebuilds = 0;
  for (const auto& [name, value] : supervisor.Collect().counters) {
    if (name == "supervisor.rebuilds") rebuilds = value;
  }
  EXPECT_GE(rebuilds, 1);
  runtime.Shutdown();
}

/// A shard killed cold under load, with no supervisor to heal it: a client
/// thread scores the catalog in chunks through a 4-shard runtime with a
/// prior and a 500 ms whole-request budget, shard 1 dies once a full pass
/// has been answered, and the client scores two more passes. Nothing
/// errors, every answer carries a tier, the survivors keep answering fresh
/// and the dead shard's rows degrade. Every non-fresh answer is counted as
/// degraded by the gather or by the shard that gave it; a row can be
/// counted by both (a shard can answer degraded a row the gather already
/// abandoned), so the sum bounds the answers from above.
TEST_F(SelfHealingTest, KilledShardDegradesThroughThePriorUnderLoad) {
  constexpr size_t kShards = 4;
  constexpr size_t kVictim = 1;
  constexpr size_t kChunk = 50;  // not a multiple of the shard batch size
  ShardedRuntimeConfig config = Config(kShards);
  config.default_deadline_us = 500'000;
  ShardedRuntime runtime(config);
  ASSERT_TRUE(runtime.PublishSharded(MakeSnapshot()).ok());

  const std::vector<int64_t> rows = AllRows();
  const size_t chunks_per_pass = (rows.size() + kChunk - 1) / kChunk;
  std::atomic<bool> first_pass_done{false};
  std::atomic<bool> killed{false};
  int64_t errors = 0;
  int64_t untagged = 0;
  int64_t fresh_after_kill = 0;
  int64_t unfresh_after_kill = 0;
  std::thread client([&] {
    size_t chunks_after_kill = 0;
    for (size_t chunk = 0; chunks_after_kill < 2 * chunks_per_pass;
         ++chunk) {
      // The kill may land while this chunk is in flight; only chunks
      // started after it count as after the kill.
      const bool after_kill = killed.load();
      const size_t begin = (chunk % chunks_per_pass) * kChunk;
      const size_t end = std::min(begin + kChunk, rows.size());
      for (const auto& result : runtime.ScoreBatch(
               {rows.begin() + static_cast<std::ptrdiff_t>(begin),
                rows.begin() + static_cast<std::ptrdiff_t>(end)})) {
        if (!result.ok()) {
          ++errors;
          continue;
        }
        const runtime::ServingTier tier = result.value().tier;
        if (static_cast<size_t>(tier) >= runtime::kNumServingTiers) {
          ++untagged;
        }
        if (!after_kill) continue;
        ++(tier == runtime::ServingTier::kFresh ? fresh_after_kill
                                                : unfresh_after_kill);
      }
      if (chunk + 1 == chunks_per_pass) first_pass_done.store(true);
      if (after_kill) ++chunks_after_kill;
    }
  });
  while (!first_pass_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runtime.ShutDownShard(kVictim);
  killed.store(true);
  client.join();
  runtime.Shutdown();

  EXPECT_EQ(errors, 0);
  EXPECT_EQ(untagged, 0);
  EXPECT_GT(unfresh_after_kill, 0) << "the dead shard's rows never degraded";
  EXPECT_GT(fresh_after_kill, 0) << "the surviving shards stopped serving";

  int64_t gather_degraded = -1;
  int64_t shard_degraded = 0;
  bool victim_namespace = false;
  for (const auto& [name, value] : runtime.Collect().counters) {
    if (name == "gather.degraded") gather_degraded = value;
    for (size_t i = 0; i < kShards; ++i) {
      if (name == "shard" + std::to_string(i) + ".degraded") {
        shard_degraded += value;
      }
    }
    if (name == "shard" + std::to_string(kVictim) + ".enqueued") {
      victim_namespace = true;
    }
  }
  EXPECT_GT(gather_degraded, 0);
  EXPECT_LE(unfresh_after_kill, gather_degraded + shard_degraded)
      << "gather.degraded " << gather_degraded << ", shards' degraded "
      << shard_degraded;
  // The dead shard's metrics stay collected: that is how an operator
  // attributes the degradation.
  EXPECT_TRUE(victim_namespace);
}

/// Resize composed with admission control: a quota-starved tenant keeps
/// hammering through its registry while its runtime is resized. Sheds
/// stay tier-tagged and the resize still drains cleanly — the two
/// protection layers do not deadlock or drop across the epoch swap.
TEST_F(SelfHealingTest, ResizeComposesWithAdmissionControl) {
  TenantRegistry registry;
  TenantConfig tenant;
  tenant.name = "starved";
  tenant.sharded = Config(2);
  tenant.admission_qps = 1e-6;  // effectively zero refill
  tenant.admission_burst = 32;
  auto added = registry.AddTenant(tenant);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_TRUE((*added)->PublishSharded(MakeSnapshot()).ok());

  const std::vector<int64_t> rows = AllRows();
  std::atomic<bool> stop{false};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> answered{0};
  std::thread client([&] {
    while (!stop.load()) {
      for (const auto& result : registry.ScoreBatch("starved", rows)) {
        if (result.ok()) {
          answered.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    }
  });
  while (answered.load() < static_cast<int64_t>(rows.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto resized = registry.Get("starved")->ResizeShards(4);
  ASSERT_TRUE(resized.ok()) << resized.status().ToString();
  EXPECT_TRUE(resized->moved_only_within_bound);

  const int64_t after_resize = answered.load();
  while (answered.load() < after_resize + static_cast<int64_t>(rows.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  client.join();
  registry.Shutdown();

  EXPECT_EQ(errors.load(), 0);
  int64_t shed = 0;
  for (const auto& [name, value] : registry.Collect().counters) {
    if (name == "tenant.starved.admission.shed") shed = value;
  }
  EXPECT_GT(shed, 0) << "quota never bit; the drill is vacuous";
}

}  // namespace
}  // namespace atnn::cluster
