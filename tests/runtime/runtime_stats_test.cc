#include "runtime/runtime_stats.h"

#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace atnn::runtime {
namespace {

TEST(RuntimeStatsTest, SnapshotReflectsRecordedEvents) {
  RuntimeStats stats;
  stats.RecordEnqueued();
  stats.RecordEnqueued();
  stats.RecordRejected();
  stats.RecordBatch(/*batch_size=*/8, /*score_us=*/120.0);
  stats.RecordCacheHits(3);
  stats.RecordEnqueueWait(40.0);
  stats.RecordResponse(/*ok=*/true, /*total_latency_us=*/200.0);
  stats.RecordResponse(/*ok=*/false, /*total_latency_us=*/9000.0);
  stats.RecordSwap();
  stats.RecordPublishRejected();
  stats.RecordDeadlineExpired();

  const StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.enqueued, 2);
  EXPECT_EQ(snapshot.rejected, 1);
  EXPECT_EQ(snapshot.completed_ok, 1);
  EXPECT_EQ(snapshot.completed_error, 1);
  EXPECT_EQ(snapshot.batches, 1);
  EXPECT_EQ(snapshot.cache_hits, 3);
  EXPECT_EQ(snapshot.swaps, 1);
  EXPECT_EQ(snapshot.publish_rejected, 1);
  EXPECT_EQ(snapshot.deadline_expired, 1);
  EXPECT_EQ(snapshot.batch_size.count(), 1);
  EXPECT_DOUBLE_EQ(snapshot.batch_size.max(), 8.0);
  EXPECT_EQ(snapshot.score_us.count(), 1);
  EXPECT_EQ(snapshot.enqueue_wait_us.count(), 1);
  EXPECT_EQ(snapshot.total_latency_us.count(), 2);
}

TEST(RuntimeStatsTest, ServedTiersSplitFreshFromDegraded) {
  RuntimeStats stats;
  stats.RecordServed(ServingTier::kFresh, 100.0);
  stats.RecordServed(ServingTier::kFresh, 110.0);
  stats.RecordServed(ServingTier::kStaleCache, 50.0);
  stats.RecordServed(ServingTier::kPrior, 30.0);
  stats.RecordServed(ServingTier::kGlobalMean, 10.0);

  const StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.completed_ok, 5);
  EXPECT_EQ(snapshot.degraded, 3);
  EXPECT_EQ(snapshot.tier_counts[static_cast<size_t>(ServingTier::kFresh)],
            2);
  EXPECT_EQ(
      snapshot.tier_counts[static_cast<size_t>(ServingTier::kStaleCache)], 1);
  EXPECT_EQ(snapshot.tier_counts[static_cast<size_t>(ServingTier::kPrior)],
            1);
  EXPECT_EQ(
      snapshot.tier_counts[static_cast<size_t>(ServingTier::kGlobalMean)], 1);
  // Only fresh-tier latencies feed the fresh histogram.
  EXPECT_EQ(snapshot.fresh_latency_us.count(), 2);
  EXPECT_EQ(snapshot.total_latency_us.count(), 5);
}

TEST(RuntimeStatsTest, CountedRecordsEqualRepeatedSingleRecords) {
  RuntimeStats counted;
  RuntimeStats repeated;
  counted.RecordServed(ServingTier::kFresh, 100.0, 5);
  counted.RecordServed(ServingTier::kPrior, 30.0, 3);
  counted.RecordEnqueueWait(40.0, 8);
  for (int i = 0; i < 5; ++i) repeated.RecordServed(ServingTier::kFresh, 100.0);
  for (int i = 0; i < 3; ++i) repeated.RecordServed(ServingTier::kPrior, 30.0);
  for (int i = 0; i < 8; ++i) repeated.RecordEnqueueWait(40.0);

  const StatsSnapshot a = counted.Snapshot();
  const StatsSnapshot b = repeated.Snapshot();
  EXPECT_EQ(a.completed_ok, 8);
  EXPECT_EQ(a.completed_ok, b.completed_ok);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.tier_counts, b.tier_counts);
  for (const auto& [x, y] :
       {std::pair{&a.total_latency_us, &b.total_latency_us},
        std::pair{&a.fresh_latency_us, &b.fresh_latency_us},
        std::pair{&a.enqueue_wait_us, &b.enqueue_wait_us}}) {
    EXPECT_EQ(x->count(), y->count());
    EXPECT_EQ(x->sum(), y->sum());
    EXPECT_EQ(x->max(), y->max());
    EXPECT_EQ(x->Percentile(0.5), y->Percentile(0.5));
  }
}

// The lock-free migration's correctness test: hammer every Record* method
// from many threads and check nothing is lost. Under TSan this also proves
// the "no data races" half of the contract.
TEST(RuntimeStatsTest, ConcurrentRecordingLosesNothing) {
  RuntimeStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.RecordEnqueued();
        stats.RecordBatch(4, 100.0);
        stats.RecordServed(ServingTier::kFresh, 250.0);
        stats.RecordEnqueueWait(10.0);
        stats.SetQueueDepth(static_cast<size_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const StatsSnapshot snapshot = stats.Snapshot();
  constexpr int64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(snapshot.enqueued, kTotal);
  EXPECT_EQ(snapshot.batches, kTotal);
  EXPECT_EQ(snapshot.completed_ok, kTotal);
  EXPECT_EQ(snapshot.tier_counts[static_cast<size_t>(ServingTier::kFresh)],
            kTotal);
  EXPECT_EQ(snapshot.batch_size.count(), kTotal);
  EXPECT_EQ(snapshot.fresh_latency_us.count(), kTotal);
  EXPECT_EQ(snapshot.enqueue_wait_us.count(), kTotal);
  EXPECT_EQ(snapshot.degraded, 0);
}

TEST(RuntimeStatsTest, RecordingIsLockFreeOnTheRegistry) {
  RuntimeStats stats;
  const int64_t locks_after_construction =
      stats.registry().mutex_acquisitions();
  for (int i = 0; i < 1000; ++i) {
    stats.RecordEnqueued();
    stats.RecordBatch(8, 50.0);
    stats.RecordServed(ServingTier::kFresh, 100.0);
    stats.RecordServed(ServingTier::kFresh, 100.0, /*count=*/64);
    stats.RecordEnqueueWait(5.0, /*count=*/64);
    stats.SetQueueDepth(3);
  }
  (void)stats.Snapshot();  // snapshot reads handles, not the registry map
  EXPECT_EQ(stats.registry().mutex_acquisitions(), locks_after_construction);
}

TEST(RuntimeStatsTest, RegistryExposesRuntimeMetricsForExporters) {
  RuntimeStats stats;
  stats.RecordEnqueued();
  stats.RecordServed(ServingTier::kPrior, 42.0);
  const obs::MetricsSnapshot collected = stats.registry().Collect();
  bool saw_enqueued = false;
  bool saw_tier_prior = false;
  for (const auto& [name, value] : collected.counters) {
    if (name == "enqueued" && value == 1) saw_enqueued = true;
    if (name == "tier.prior" && value == 1) saw_tier_prior = true;
  }
  EXPECT_TRUE(saw_enqueued);
  EXPECT_TRUE(saw_tier_prior);
}

TEST(RuntimeStatsTest, ToTableListsEveryStageAndTier) {
  RuntimeStats stats;
  stats.RecordServed(ServingTier::kGlobalMean, 10.0);
  const std::string table = RuntimeStats::ToTable(stats.Snapshot());
  for (const char* needle :
       {"enqueue_wait_us", "batch_size", "score_us", "total_latency_us",
        "fresh_latency_us", "enqueued", "rejected", "completed_ok",
        "deadline_expired", "degraded", "tier_fresh", "tier_stale_cache",
        "tier_prior", "tier_global_mean"}) {
    EXPECT_NE(table.find(needle), std::string::npos) << needle;
  }
}

TEST(ServingTierTest, NamesAreStable) {
  EXPECT_STREQ(ServingTierToString(ServingTier::kFresh), "fresh");
  EXPECT_STREQ(ServingTierToString(ServingTier::kStaleCache), "stale_cache");
  EXPECT_STREQ(ServingTierToString(ServingTier::kPrior), "prior");
  EXPECT_STREQ(ServingTierToString(ServingTier::kGlobalMean), "global_mean");
}

}  // namespace
}  // namespace atnn::runtime
