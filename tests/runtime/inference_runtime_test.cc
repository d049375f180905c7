#include "runtime/inference_runtime.h"

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "core/atnn.h"
#include "core/generator_plan.h"
#include "core/popularity.h"
#include "data/tmall.h"
#include "quant/quantized_generator.h"
#include "serving/popularity_index.h"

namespace atnn::runtime {
namespace {

/// One tiny world + model per test binary: the runtime's correctness
/// contract is "same scores as the sequential O(1) path", which does not
/// require trained weights, so the model stays at its (deterministic,
/// seeded) initialization.
class InferenceRuntimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(
        core::testing_helpers::MakeNormalizedTinyDataset());
    core::AtnnConfig config;
    config.tower = core::testing_helpers::TinyTowerConfig(
        nn::TowerKind::kDeepCross);
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

  static ServingSnapshot MakeSnapshot() {
    ServingSnapshot snapshot;
    snapshot.model = Unowned(model_);
    snapshot.predictor = Unowned(predictor_);
    snapshot.item_profiles = Unowned(&dataset_->item_profiles);
    snapshot.tag = "test";
    return snapshot;
  }

  static RuntimeConfig SmallRuntimeConfig() {
    RuntimeConfig config;
    config.num_workers = 2;
    config.batcher.max_batch_size = 16;
    config.batcher.max_delay_us = 500;
    config.batcher.queue_capacity = 256;
    return config;
  }

  static data::TmallDataset* dataset_;
  static core::AtnnModel* model_;
  static core::PopularityPredictor* predictor_;
};

data::TmallDataset* InferenceRuntimeTest::dataset_ = nullptr;
core::AtnnModel* InferenceRuntimeTest::model_ = nullptr;
core::PopularityPredictor* InferenceRuntimeTest::predictor_ = nullptr;

TEST_F(InferenceRuntimeTest, MatchesSequentialScoring) {
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, dataset_->new_items);

  InferenceRuntime runtime(SmallRuntimeConfig());
  const auto published = runtime.Publish(MakeSnapshot());
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(published.value(), 1u);

  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  futures.reserve(dataset_->new_items.size());
  for (int64_t item : dataset_->new_items) {
    futures.push_back(runtime.ScoreAsync(item));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NEAR(result.value().score, expected[i], 1e-9);
    EXPECT_EQ(result.value().snapshot_version, 1u);
  }

  runtime.Shutdown();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.enqueued,
            static_cast<int64_t>(dataset_->new_items.size()));
  EXPECT_EQ(stats.completed_ok,
            static_cast<int64_t>(dataset_->new_items.size()));
  EXPECT_EQ(stats.completed_error, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_GE(stats.batches, 1);
  // Micro-batching actually coalesced: fewer batches than requests.
  EXPECT_LT(stats.batches, stats.enqueued);
  EXPECT_LE(stats.batch_size.max(),
            static_cast<double>(SmallRuntimeConfig().batcher.max_batch_size));
}

TEST_F(InferenceRuntimeTest, ScoreBeforePublishFailsCleanly) {
  InferenceRuntime runtime(SmallRuntimeConfig());
  const auto result = runtime.Score(0);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(InferenceRuntimeTest, OutOfRangeRowIsInvalidArgument) {
  InferenceRuntime runtime(SmallRuntimeConfig());
  runtime.Publish(MakeSnapshot());
  EXPECT_EQ(runtime.Score(-1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(runtime
                .Score(dataset_->item_profiles.num_rows() + 5)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A valid row still works in the same runtime (mixed batches split).
  EXPECT_TRUE(runtime.Score(dataset_->new_items.front()).ok());
}

TEST_F(InferenceRuntimeTest, SyncScoreMatchesAsync) {
  InferenceRuntime runtime(SmallRuntimeConfig());
  runtime.Publish(MakeSnapshot());
  const int64_t item = dataset_->new_items.front();
  const auto sync = runtime.Score(item);
  ASSERT_TRUE(sync.ok());
  const auto async = runtime.ScoreAsync(item).get();
  ASSERT_TRUE(async.ok());
  EXPECT_NEAR(sync.value().score, async.value().score, 1e-12);
}

TEST_F(InferenceRuntimeTest, ScoreBurstAnswersEveryRowIntoItsSlot) {
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, dataset_->new_items);
  InferenceRuntime runtime(SmallRuntimeConfig());
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());

  std::vector<int64_t> rows = dataset_->new_items;
  rows.push_back(-1);
  rows.push_back(dataset_->item_profiles.num_rows());
  const auto burst = runtime.ScoreBurst(rows, 0);
  ASSERT_EQ(burst->size(), rows.size());
  EXPECT_TRUE(burst->WaitUntil(std::chrono::steady_clock::time_point::max()));
  burst->TakeAll([&](size_t slot, StatusOr<ScoreResult>* answer) {
    ASSERT_NE(answer, nullptr) << "slot " << slot;
    if (slot >= expected.size()) {
      EXPECT_EQ(answer->status().code(), StatusCode::kInvalidArgument);
      return;
    }
    ASSERT_TRUE(answer->ok()) << answer->status().ToString();
    EXPECT_EQ(answer->value().score, expected[slot]) << "slot " << slot;
    EXPECT_EQ(answer->value().tier, ServingTier::kFresh);
    EXPECT_EQ(answer->value().snapshot_version, 1u);
  });
  EXPECT_EQ(runtime.stats().enqueued, static_cast<int64_t>(rows.size()));

  // Runs of burst rows are answered and recorded once, with the totals of
  // one record per row. Shutdown joins the workers, so every record of the
  // burst has landed.
  runtime.Shutdown();
  const StatsSnapshot stats = runtime.stats();
  const auto fresh = static_cast<int64_t>(expected.size());
  EXPECT_EQ(stats.completed_ok, fresh);
  EXPECT_EQ(stats.completed_error, 2);
  EXPECT_EQ(stats.tier_counts[static_cast<size_t>(ServingTier::kFresh)],
            fresh);
  EXPECT_EQ(stats.fresh_latency_us.count(), fresh);
  EXPECT_EQ(stats.total_latency_us.count(),
            static_cast<int64_t>(rows.size()));
  EXPECT_EQ(stats.enqueue_wait_us.count(), static_cast<int64_t>(rows.size()));

  // After shutdown every row is refused as the real condition, not
  // degraded.
  const auto refused = runtime.ScoreBurst(dataset_->new_items, 0);
  EXPECT_TRUE(refused->WaitUntil(std::chrono::steady_clock::now()));
  refused->TakeAll([](size_t slot, StatusOr<ScoreResult>* answer) {
    ASSERT_NE(answer, nullptr) << "slot " << slot;
    EXPECT_EQ(answer->status().code(), StatusCode::kFailedPrecondition);
  });
}

TEST_F(InferenceRuntimeTest, BurstsAndSingleRowsShareBatchesAnsweredOnce) {
  // Two workers hold their first batches while two bursts and single rows
  // between them queue up, so later batches mix rows of burst A, single
  // rows and rows of burst B. B's deadline passes while the workers hold:
  // its rows expire before their batch runs and degrade, splitting runs.
  RuntimeConfig config = SmallRuntimeConfig();
  config.fault_injection.enabled = true;  // for the stall switch only
  InferenceRuntime runtime(config);
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());

  std::vector<int64_t> rows_a;
  std::vector<int64_t> rows_single;
  std::vector<int64_t> rows_b;
  for (int64_t row = 0; row < 40; ++row) rows_a.push_back(row);
  for (int64_t row = 40; row < 45; ++row) rows_single.push_back(row);
  for (int64_t row = 45; row < 75; ++row) rows_b.push_back(row);
  std::vector<int64_t> fresh_rows = rows_a;
  fresh_rows.insert(fresh_rows.end(), rows_single.begin(), rows_single.end());
  const std::vector<double> expected =
      predictor_->ScoreItems(*model_, *dataset_, fresh_rows);

  runtime.fault_injector().SetStallWorkers(true);
  const auto burst_a = runtime.ScoreBurst(rows_a, 0);
  std::vector<std::future<StatusOr<ScoreResult>>> singles;
  for (const int64_t row : rows_single) {
    singles.push_back(runtime.ScoreAsync(row));
  }
  const auto burst_b = runtime.ScoreBurst(rows_b, /*deadline_us=*/1000);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  runtime.fault_injector().SetStallWorkers(false);

  const auto wait_limit =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  ASSERT_TRUE(burst_a->WaitUntil(wait_limit)) << "burst A's waiter woke";
  ASSERT_TRUE(burst_b->WaitUntil(wait_limit)) << "burst B's waiter woke";
  burst_a->TakeAll([&](size_t slot, StatusOr<ScoreResult>* answer) {
    ASSERT_NE(answer, nullptr) << "slot " << slot;
    ASSERT_TRUE(answer->ok()) << answer->status().ToString();
    EXPECT_EQ(answer->value().tier, ServingTier::kFresh) << "slot " << slot;
    EXPECT_EQ(answer->value().score, expected[slot]) << "slot " << slot;
  });
  for (size_t i = 0; i < singles.size(); ++i) {
    const StatusOr<ScoreResult> answer = singles[i].get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer.value().tier, ServingTier::kFresh);
    EXPECT_EQ(answer.value().score, expected[rows_a.size() + i]);
  }
  burst_b->TakeAll([&](size_t slot, StatusOr<ScoreResult>* answer) {
    ASSERT_NE(answer, nullptr) << "slot " << slot;
    ASSERT_TRUE(answer->ok()) << answer->status().ToString();
    // Never scored, so the fallback chain cannot answer from the cache.
    EXPECT_EQ(answer->value().tier, ServingTier::kGlobalMean)
        << "slot " << slot;
  });

  // Every row answered exactly once: one record per row, no more.
  runtime.Shutdown();
  const StatsSnapshot stats = runtime.stats();
  const auto total = static_cast<int64_t>(fresh_rows.size() + rows_b.size());
  const auto fresh = static_cast<int64_t>(fresh_rows.size());
  const auto expired = static_cast<int64_t>(rows_b.size());
  EXPECT_EQ(stats.enqueued, total);
  EXPECT_EQ(stats.enqueue_wait_us.count(), total);
  EXPECT_EQ(stats.completed_ok, total);
  EXPECT_EQ(stats.completed_error, 0);
  EXPECT_EQ(stats.total_latency_us.count(), total);
  EXPECT_EQ(stats.tier_counts[static_cast<size_t>(ServingTier::kFresh)],
            fresh);
  EXPECT_EQ(stats.fresh_latency_us.count(), fresh);
  EXPECT_EQ(stats.deadline_expired, expired);
  EXPECT_EQ(stats.degraded, expired);
}

TEST_F(InferenceRuntimeTest, ConcurrentShutdownsDrainEveryRequestAndReturn) {
  // Several callers can shut one runtime down at once: a sharded front-end
  // retiring a shard, a rebuild that replaces it, and the destructor. The
  // stall switch holds both workers while 60 rows queue; then two threads
  // call Shutdown() together. Each call must return, and only once every
  // queued row has been answered.
  RuntimeConfig config = SmallRuntimeConfig();
  config.fault_injection.enabled = true;  // for the stall switch only
  InferenceRuntime runtime(config);
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());

  constexpr int64_t kRows = 60;
  runtime.fault_injector().SetStallWorkers(true);
  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  for (int64_t row = 0; row < kRows; ++row) {
    futures.push_back(runtime.ScoreAsync(row));
  }
  auto count_ready = [&futures] {
    int64_t ready = 0;
    for (const auto& future : futures) {
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        ++ready;
      }
    }
    return ready;
  };
  ASSERT_EQ(count_ready(), 0) << "the stalled workers answered a row";

  std::atomic<bool> go{false};
  std::vector<int64_t> ready_at_return(2, -1);
  std::vector<std::thread> closers;
  for (size_t i = 0; i < ready_at_return.size(); ++i) {
    closers.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      runtime.Shutdown();
      ready_at_return[i] = count_ready();
    });
  }
  go.store(true);
  for (std::thread& closer : closers) closer.join();
  EXPECT_EQ(ready_at_return, std::vector<int64_t>(2, kRows))
      << "a Shutdown() returned before every row was answered";

  for (auto& future : futures) {
    const StatusOr<ScoreResult> answer = future.get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer.value().tier, ServingTier::kFresh);
  }
  EXPECT_EQ(runtime.stats().completed_ok, kRows);

  const auto start = std::chrono::steady_clock::now();
  runtime.Shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1))
      << "a Shutdown() after the workers were joined waited";
}

TEST_F(InferenceRuntimeTest, InjectedFaultsDegradeEveryBurstRowCleanly) {
  RuntimeConfig config = SmallRuntimeConfig();
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 99;
  config.fault_injection.batch_failure_probability = 0.3;
  config.fault_injection.enqueue_reject_probability = 0.1;
  InferenceRuntime runtime(config);
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());

  const auto burst = runtime.ScoreBurst(dataset_->new_items, 0);
  EXPECT_TRUE(burst->WaitUntil(std::chrono::steady_clock::time_point::max()));
  burst->TakeAll([](size_t slot, StatusOr<ScoreResult>* answer) {
    ASSERT_NE(answer, nullptr) << "slot " << slot;
    EXPECT_TRUE(answer->ok()) << answer->status().ToString();
  });
  runtime.Shutdown();
  const auto stats = runtime.stats();
  EXPECT_GT(stats.faults_injected, 0);
  EXPECT_EQ(stats.completed_ok,
            static_cast<int64_t>(dataset_->new_items.size()));
  EXPECT_GT(stats.degraded, 0);
}

TEST_F(InferenceRuntimeTest, ScoreCacheServesRepeatsAndInvalidatesOnPublish) {
  RuntimeConfig config = SmallRuntimeConfig();
  config.num_workers = 1;  // sync Score => one request per batch, so the
                           // cache-hit count below is exact
  InferenceRuntime runtime(config);
  runtime.Publish(MakeSnapshot());

  const int64_t item = dataset_->new_items.front();
  const auto first = runtime.Score(item);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 8; ++i) {
    const auto repeat = runtime.Score(item);
    ASSERT_TRUE(repeat.ok());
    // Memoized, so bit-identical — not merely close.
    EXPECT_EQ(repeat.value().score, first.value().score);
    EXPECT_EQ(repeat.value().snapshot_version, 1u);
  }
  EXPECT_EQ(runtime.stats().cache_hits, 8);

  // Publishing a snapshot with a different mean-user vector must invalidate
  // every cached score: version 1 values may not leak into version 2.
  const auto group_b = core::SelectActiveUsers(*dataset_, 16);
  const auto predictor_b = std::make_shared<core::PopularityPredictor>(
      core::PopularityPredictor::Build(*model_, *dataset_, group_b));
  const double expected_b =
      predictor_b->ScoreItems(*model_, *dataset_, {item}).front();
  ServingSnapshot snapshot;
  snapshot.model = Unowned(model_);
  snapshot.predictor = predictor_b;
  snapshot.item_profiles = Unowned(&dataset_->item_profiles);
  runtime.Publish(std::move(snapshot));

  const auto after = runtime.Score(item);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().snapshot_version, 2u);
  EXPECT_NEAR(after.value().score, expected_b, 1e-9);
  EXPECT_NE(after.value().score, first.value().score);
}

TEST_F(InferenceRuntimeTest, HotSwapChurnDropsNothingAndScoresConsistently) {
  // Two model versions that differ only in the mean-user vector: odd
  // versions serve group A, even versions group B.
  const auto group_a = core::SelectActiveUsers(*dataset_, 64);
  const auto group_b = core::SelectActiveUsers(*dataset_, 16);
  const auto predictor_a = std::make_shared<core::PopularityPredictor>(
      core::PopularityPredictor::Build(*model_, *dataset_, group_a));
  const auto predictor_b = std::make_shared<core::PopularityPredictor>(
      core::PopularityPredictor::Build(*model_, *dataset_, group_b));
  const std::vector<double> expected_a =
      predictor_a->ScoreItems(*model_, *dataset_, dataset_->new_items);
  const std::vector<double> expected_b =
      predictor_b->ScoreItems(*model_, *dataset_, dataset_->new_items);

  const auto snapshot_for = [&](int version_parity) {
    ServingSnapshot snapshot;
    snapshot.model = Unowned(model_);
    snapshot.predictor = version_parity % 2 == 1 ? predictor_a : predictor_b;
    snapshot.item_profiles = Unowned(&dataset_->item_profiles);
    return snapshot;
  };

  InferenceRuntime runtime(SmallRuntimeConfig());
  runtime.Publish(snapshot_for(1));

  std::atomic<bool> stop_publishing{false};
  std::atomic<int> churn_publishes{0};
  std::thread publisher([&] {
    int version = 2;
    while (!stop_publishing.load()) {
      runtime.Publish(snapshot_for(version++));
      churn_publishes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Requests go out once the churn has begun, so they race live swaps even
  // when a loaded host schedules the publisher late.
  while (churn_publishes.load() == 0) std::this_thread::yield();

  constexpr int kRounds = 20;
  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  std::vector<size_t> item_index;
  futures.reserve(kRounds * dataset_->new_items.size());
  // The score path records lock-free, publishes included: the registry
  // mutex must not move from the first request to the last answer.
  const int64_t locks_before = runtime.metrics_registry().mutex_acquisitions();
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < dataset_->new_items.size(); ++i) {
      futures.push_back(runtime.ScoreAsync(dataset_->new_items[i]));
      item_index.push_back(i);
    }
  }

  // Zero drops: every single future resolves with a score, and each score
  // is exactly what the version recorded in its response would produce.
  for (size_t f = 0; f < futures.size(); ++f) {
    const auto result = futures[f].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto& expected = result.value().snapshot_version % 2 == 1
                               ? expected_a
                               : expected_b;
    EXPECT_NEAR(result.value().score, expected[item_index[f]], 1e-9);
  }
  EXPECT_EQ(runtime.metrics_registry().mutex_acquisitions(), locks_before);

  stop_publishing.store(true);
  publisher.join();
  runtime.Shutdown();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.completed_ok, static_cast<int64_t>(futures.size()));
  EXPECT_EQ(stats.completed_error, 0);
  EXPECT_GE(stats.swaps, 2);
}

TEST_F(InferenceRuntimeTest, RejectPolicyShedsButNeverHangs) {
  RuntimeConfig config;
  config.num_workers = 1;
  config.batcher.max_batch_size = 8;
  config.batcher.max_delay_us = 200;
  config.batcher.queue_capacity = 8;
  config.batcher.admission = AdmissionPolicy::kRejectWithStatus;
  InferenceRuntime runtime(config);
  runtime.Publish(MakeSnapshot());

  constexpr int kRequests = 400;
  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(
        runtime.ScoreAsync(dataset_->new_items[static_cast<size_t>(i) %
                                               dataset_->new_items.size()]));
  }
  // Every request is answered: a shed one from the fallback chain, never
  // with an error.
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  runtime.Shutdown();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.enqueued + stats.rejected, kRequests);
  EXPECT_GT(stats.enqueued, 0);  // overload sheds, it does not collapse
  // Only shed requests degrade. A shed row the current version already
  // scored is answered from the cache and tagged fresh, so the two counts
  // need not be equal.
  EXPECT_LE(stats.degraded, stats.rejected);
  EXPECT_EQ(stats.completed_error, 0);
}

TEST_F(InferenceRuntimeTest, ConfigValidationReturnsStatusNotAbort) {
  RuntimeConfig config = SmallRuntimeConfig();
  config.num_workers = 0;  // would hang every request forever
  EXPECT_EQ(InferenceRuntime::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = SmallRuntimeConfig();
  config.batcher.max_batch_size = 0;
  EXPECT_EQ(InferenceRuntime::Create(config).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(config.batcher.Validate().code(), StatusCode::kInvalidArgument);

  config = SmallRuntimeConfig();
  config.batcher.queue_capacity = 0;  // cannot hold one full batch
  EXPECT_EQ(InferenceRuntime::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = SmallRuntimeConfig();
  config.batcher.max_delay_us = -1;
  EXPECT_EQ(InferenceRuntime::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = SmallRuntimeConfig();
  config.batcher.max_delay_us = 2000;
  config.default_deadline_us = 500;  // shorter than the flush interval
  EXPECT_EQ(InferenceRuntime::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  // A valid config constructs and serves through Create.
  auto runtime = InferenceRuntime::Create(SmallRuntimeConfig());
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  ASSERT_TRUE((*runtime)->Publish(MakeSnapshot()).ok());
  EXPECT_TRUE((*runtime)->Score(dataset_->new_items.front()).ok());
}

TEST_F(InferenceRuntimeTest, PublishRejectsCorruptSnapshotAndKeepsServing) {
  InferenceRuntime runtime(SmallRuntimeConfig());
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
  const int64_t item = dataset_->new_items.front();
  const auto before = runtime.Score(item);
  ASSERT_TRUE(before.ok());

  // NaN in the mean-user vector: DataLoss, version unchanged.
  nn::Tensor poisoned = predictor_->mean_user_vector();
  poisoned.data()[0] = std::numeric_limits<float>::quiet_NaN();
  ServingSnapshot corrupt = MakeSnapshot();
  corrupt.predictor = std::make_shared<core::PopularityPredictor>(
      std::move(poisoned), predictor_->bias());
  const auto rejected = runtime.Publish(std::move(corrupt));
  EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(runtime.snapshot_version(), 1u);

  // Null members and dimension mismatches are InvalidArgument.
  ServingSnapshot null_model = MakeSnapshot();
  null_model.model = nullptr;
  EXPECT_EQ(runtime.Publish(std::move(null_model)).status().code(),
            StatusCode::kInvalidArgument);
  ServingSnapshot bad_dim = MakeSnapshot();
  bad_dim.predictor = std::make_shared<core::PopularityPredictor>(
      nn::Tensor(1, model_->vector_dim() + 1), 0.0f);
  EXPECT_EQ(runtime.Publish(std::move(bad_dim)).status().code(),
            StatusCode::kInvalidArgument);

  // The version published before the corrupt attempts still serves, with
  // identical scores.
  const auto after = runtime.Score(item);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().score, before.value().score);
  EXPECT_EQ(after.value().snapshot_version, 1u);
  runtime.Shutdown();
  EXPECT_EQ(runtime.stats().publish_rejected, 3);
  EXPECT_EQ(runtime.stats().swaps, 1);
}

TEST_F(InferenceRuntimeTest, FallbackChainWalksCacheThenPriorThenGlobalMean) {
  RuntimeConfig config = SmallRuntimeConfig();
  config.num_workers = 1;  // deterministic batching and cache contents
  InferenceRuntime runtime(config);
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());

  // Four distinct items play four roles.
  const int64_t cached_item = dataset_->new_items[0];
  const int64_t rotated_item = dataset_->new_items[1];
  const int64_t prior_item = dataset_->new_items[2];
  const int64_t unknown_item = dataset_->new_items[3];

  // Tier 0 (fresh-from-cache): a cached item answered under an expired
  // deadline is exact — no forward pass, no degradation.
  const auto fresh = runtime.Score(cached_item);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().tier, ServingTier::kFresh);
  const auto from_cache = runtime.ScoreAsync(cached_item, 1).get();
  ASSERT_TRUE(from_cache.ok());
  EXPECT_EQ(from_cache.value().tier, ServingTier::kFresh);
  EXPECT_EQ(from_cache.value().score, fresh.value().score);

  // Tier 1 (stale cache): publish v2 with a different predictor, warm the
  // v2 cache with another item (rotating v1's scores into the stale
  // generation), then ask for the v1-cached item under an expired deadline.
  const auto group_b = core::SelectActiveUsers(*dataset_, 16);
  ServingSnapshot snapshot_b = MakeSnapshot();
  snapshot_b.predictor = std::make_shared<core::PopularityPredictor>(
      core::PopularityPredictor::Build(*model_, *dataset_, group_b));
  ASSERT_TRUE(runtime.Publish(std::move(snapshot_b)).ok());
  const auto rotated_fresh = runtime.Score(rotated_item);
  ASSERT_TRUE(rotated_fresh.ok());
  EXPECT_EQ(rotated_fresh.value().snapshot_version, 2u);
  const auto stale = runtime.ScoreAsync(cached_item, 1).get();
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value().tier, ServingTier::kStaleCache);
  EXPECT_EQ(stale.value().snapshot_version, 1u);
  EXPECT_EQ(stale.value().score, fresh.value().score);

  // Tier 2 (prior): an item never scored by any version, present in the
  // popularity-index prior.
  auto prior = std::make_shared<serving::PopularityIndex>();
  prior->Upsert(prior_item, 0.777);
  runtime.SetPrior(prior);
  const auto from_prior = runtime.ScoreAsync(prior_item, 1).get();
  ASSERT_TRUE(from_prior.ok());
  EXPECT_EQ(from_prior.value().tier, ServingTier::kPrior);
  EXPECT_EQ(from_prior.value().score, 0.777);

  // Tier 3 (global mean): unknown everywhere — the running mean of the two
  // fresh forwards served above.
  const auto from_mean = runtime.ScoreAsync(unknown_item, 1).get();
  ASSERT_TRUE(from_mean.ok());
  EXPECT_EQ(from_mean.value().tier, ServingTier::kGlobalMean);
  EXPECT_NEAR(
      from_mean.value().score,
      (fresh.value().score + rotated_fresh.value().score) / 2.0, 1e-12);

  runtime.Shutdown();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.tier_counts[static_cast<size_t>(ServingTier::kStaleCache)],
            1);
  EXPECT_EQ(stats.tier_counts[static_cast<size_t>(ServingTier::kPrior)], 1);
  EXPECT_EQ(stats.tier_counts[static_cast<size_t>(ServingTier::kGlobalMean)],
            1);
  EXPECT_EQ(stats.degraded, 3);
  EXPECT_GE(stats.deadline_expired, 3);
}

TEST_F(InferenceRuntimeTest, DegradedAnswersNeverBlockOnTheQueue) {
  // Every admission is treated as queue-full by the injector; with the
  // fallback chain on, each request must resolve immediately without ever
  // entering the queue — degraded service stays cheap under overload.
  RuntimeConfig config = SmallRuntimeConfig();
  config.fault_injection.enabled = true;
  config.fault_injection.enqueue_reject_probability = 1.0;
  auto prior = std::make_shared<serving::PopularityIndex>();
  for (int64_t item : dataset_->new_items) prior->Upsert(item, 0.25);
  config.prior = prior;
  InferenceRuntime runtime(config);
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());

  for (int i = 0; i < 64; ++i) {
    auto future = runtime.ScoreAsync(
        dataset_->new_items[static_cast<size_t>(i) %
                            dataset_->new_items.size()]);
    // Already fulfilled: the degraded path answered synchronously.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto result = future.get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().tier, ServingTier::kPrior);
    EXPECT_EQ(result.value().score, 0.25);
  }
  EXPECT_EQ(runtime.queue_depth(), 0u);
  runtime.Shutdown();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.degraded, 64);
  EXPECT_EQ(stats.faults_injected, 64);
  EXPECT_EQ(stats.enqueued, 0);
}

TEST_F(InferenceRuntimeTest, InjectedFaultsDegradeEveryResponseCleanly) {
  RuntimeConfig config = SmallRuntimeConfig();
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 99;
  config.fault_injection.worker_delay_probability = 0.2;
  config.fault_injection.worker_delay_us = 200;
  config.fault_injection.batch_failure_probability = 0.3;
  config.fault_injection.enqueue_reject_probability = 0.1;
  InferenceRuntime runtime(config);
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());

  constexpr int kRequests = 500;
  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  futures.reserve(kRequests);
  // Degraded answers record lock-free too.
  const int64_t locks_before = runtime.metrics_registry().mutex_acquisitions();
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(runtime.ScoreAsync(
        dataset_->new_items[static_cast<size_t>(i) %
                            dataset_->new_items.size()]));
  }
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(runtime.metrics_registry().mutex_acquisitions(), locks_before);
  runtime.Shutdown();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.completed_ok, kRequests);
  EXPECT_EQ(stats.completed_error, 0);
  EXPECT_GT(stats.faults_injected, 0);
  int64_t tier_sum = 0;
  for (const int64_t count : stats.tier_counts) tier_sum += count;
  EXPECT_EQ(tier_sum, kRequests);  // every response carries a tier
}

TEST_F(InferenceRuntimeTest,
       CorruptAndValidPublishesUnderConcurrentLoadStayConsistent) {
  // TSan stress for the validation path: publishers race corrupt and valid
  // snapshots against scoring clients. Corrupt publishes must all be
  // rejected, every request answered, and served versions only ever name
  // validly published snapshots.
  InferenceRuntime runtime(SmallRuntimeConfig());
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> valid_publishes{0};
  std::atomic<int64_t> corrupt_attempts{0};
  std::atomic<int64_t> corrupt_accepted{0};
  std::thread valid_publisher([&] {
    while (!stop.load()) {
      runtime.Publish(MakeSnapshot());
      valid_publishes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread corrupt_publisher([&] {
    while (!stop.load()) {
      nn::Tensor poisoned = predictor_->mean_user_vector();
      poisoned.data()[0] = std::numeric_limits<float>::infinity();
      ServingSnapshot corrupt = MakeSnapshot();
      corrupt.predictor = std::make_shared<core::PopularityPredictor>(
          std::move(poisoned), predictor_->bias());
      if (runtime.Publish(std::move(corrupt)).ok()) {
        corrupt_accepted.fetch_add(1);
      }
      corrupt_attempts.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kRounds = 10;
  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  for (int round = 0; round < kRounds; ++round) {
    for (const int64_t item : dataset_->new_items) {
      futures.push_back(runtime.ScoreAsync(item));
    }
  }
  int64_t answered = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(result.value().snapshot_version, 1u);
    ++answered;
  }
  // Scoring can finish before a loaded scheduler first runs either
  // publisher; the rejection path and a valid publish after the initial
  // one must each have run at least once.
  while (corrupt_attempts.load() == 0 || valid_publishes.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  valid_publisher.join();
  corrupt_publisher.join();
  runtime.Shutdown();

  EXPECT_EQ(answered, static_cast<int64_t>(futures.size()));
  EXPECT_EQ(corrupt_accepted.load(), 0);
  const auto stats = runtime.stats();
  EXPECT_GT(stats.publish_rejected, 0);
  EXPECT_GE(stats.swaps, 2);  // valid publishes kept landing
  EXPECT_EQ(stats.completed_error, 0);
}

// The low-precision serving path: a snapshot whose generator is the int8
// artifact and whose fp32 model is deliberately null must validate,
// publish, and answer every request with exactly the scores the lowered
// plan produces (the runtime adds batching, not arithmetic).
TEST_F(InferenceRuntimeTest, QuantizedSnapshotServesWithoutFp32Model) {
  const data::BlockBatch calibration =
      data::GatherBlock(dataset_->item_profiles, dataset_->new_items);
  auto quantized = quant::QuantizedGenerator::Build(
      *model_, calibration, quant::Precision::kInt8);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();

  const auto plan = quant::CompileQuantizedPlan(
      *quantized, dataset_->item_profiles, /*max_batch=*/16);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const auto expected = core::ScoreItemsWithPlan(
      **plan, *predictor_, dataset_->item_profiles, dataset_->new_items);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ServingSnapshot snapshot;
  snapshot.quantized = Unowned(&*quantized);
  snapshot.predictor = Unowned(predictor_);
  snapshot.item_profiles = Unowned(&dataset_->item_profiles);
  snapshot.tag = "test-int8";

  InferenceRuntime runtime(SmallRuntimeConfig());
  const auto published = runtime.Publish(std::move(snapshot));
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  futures.reserve(dataset_->new_items.size());
  for (int64_t item : dataset_->new_items) {
    futures.push_back(runtime.ScoreAsync(item));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().score, (*expected)[i]) << i;
  }
  runtime.Shutdown();
  EXPECT_EQ(runtime.stats().completed_error, 0);
}

TEST_F(InferenceRuntimeTest, StatsTableRendersEveryStage) {
  InferenceRuntime runtime(SmallRuntimeConfig());
  runtime.Publish(MakeSnapshot());
  for (int i = 0; i < 32; ++i) {
    runtime.ScoreAsync(dataset_->new_items[static_cast<size_t>(i) %
                                           dataset_->new_items.size()]);
  }
  runtime.Shutdown();
  const std::string table = RuntimeStats::ToTable(runtime.stats());
  for (const char* stage :
       {"enqueue_wait_us", "batch_size", "score_us", "total_latency_us",
        "enqueued", "rejected", "completed_ok", "cache_hits",
        "snapshot_swaps"}) {
    EXPECT_NE(table.find(stage), std::string::npos) << stage;
  }
}

// Regression: the score cache used to rotate generations lazily, on the
// first scored batch of a new version. Under a streaming publish cadence
// (publishes outpacing traffic) the stale-while-revalidate generation
// then held scores from versions arbitrarily older than the 1-version
// window it advertises. Publish now evicts retired generations eagerly.
TEST_F(InferenceRuntimeTest, PublishEvictsRetiredCacheGenerations) {
  RuntimeConfig config = SmallRuntimeConfig();
  config.num_workers = 1;
  InferenceRuntime runtime(config);
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());

  // Populate version 1's fresh generation.
  const int64_t item = dataset_->new_items.front();
  ASSERT_TRUE(runtime.Score(item).ok());
  auto generations = runtime.ScoreCacheGenerationsForTest();
  EXPECT_EQ(generations.fresh_version, 1u);
  EXPECT_EQ(generations.fresh_entries, 1u);

  // One publish with NO traffic in between: version 1's scores rotate to
  // the stale generation immediately, not on the next scored batch.
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
  generations = runtime.ScoreCacheGenerationsForTest();
  EXPECT_EQ(generations.fresh_version, 2u);
  EXPECT_EQ(generations.fresh_entries, 0u);
  EXPECT_EQ(generations.stale_version, 1u);
  EXPECT_EQ(generations.stale_entries, 1u);

  // A second traffic-less publish retires version 1 entirely. On the old
  // lazy-rotation code the stale generation still held version 1 here —
  // outside the one-version stale-while-revalidate window.
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
  generations = runtime.ScoreCacheGenerationsForTest();
  EXPECT_EQ(generations.fresh_version, 3u);
  EXPECT_EQ(generations.fresh_entries, 0u);
  EXPECT_EQ(generations.stale_version, 2u);
  EXPECT_EQ(generations.stale_entries, 0u);
}

TEST_F(InferenceRuntimeTest, CacheGenerationBoundHoldsUnderPublishChurn) {
  RuntimeConfig config = SmallRuntimeConfig();
  config.num_workers = 1;
  InferenceRuntime runtime(config);
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
  // Interleave traffic and publishes; after every publish the invariant
  // holds: fresh generation is the live version, stale is at most one
  // version behind, nothing older survives.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          runtime
              .Score(dataset_->new_items[static_cast<size_t>(i + round)])
              .ok());
    }
    ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
    const auto generations = runtime.ScoreCacheGenerationsForTest();
    const uint64_t live = runtime.snapshot_version();
    EXPECT_EQ(generations.fresh_version, live);
    EXPECT_EQ(generations.fresh_entries, 0u);
    EXPECT_EQ(generations.stale_version, live - 1);
    EXPECT_EQ(generations.stale_entries, 3u);
  }
}

TEST_F(InferenceRuntimeTest, CacheGrowsWithALargerItemTable) {
  RuntimeConfig config = SmallRuntimeConfig();
  config.num_workers = 1;  // sync Score => one request per batch
  InferenceRuntime runtime(config);
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
  ASSERT_TRUE(runtime.Score(dataset_->new_items.front()).ok());

  // Twice the rows: the second half repeats the first.
  const int64_t old_rows = dataset_->item_profiles.num_rows();
  std::vector<int64_t> doubled;
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t row = 0; row < old_rows; ++row) doubled.push_back(row);
  }
  const data::EntityTable larger =
      data::SliceRows(dataset_->item_profiles, doubled);
  ServingSnapshot snapshot = MakeSnapshot();
  snapshot.item_profiles = Unowned(&larger);
  ASSERT_TRUE(runtime.Publish(std::move(snapshot)).ok());

  const int64_t row = old_rows + dataset_->new_items.front();
  const auto first = runtime.Score(row);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().tier, ServingTier::kFresh);
  const int64_t hits_before = runtime.stats().cache_hits;
  const auto second = runtime.Score(row);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(runtime.stats().cache_hits, hits_before + 1);
  EXPECT_EQ(second.value().score, first.value().score);
  EXPECT_EQ(second.value().snapshot_version, 2u);
  runtime.Shutdown();
}

}  // namespace
}  // namespace atnn::runtime
