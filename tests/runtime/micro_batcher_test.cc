#include "runtime/micro_batcher.h"

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace atnn::runtime {
namespace {

BatcherConfig SmallConfig() {
  BatcherConfig config;
  config.max_batch_size = 4;
  config.max_delay_us = 2000;
  config.queue_capacity = 8;
  return config;
}

/// Requests for rows first_row, first_row + 1, ... answering into slots
/// 0, 1, ... of `burst`.
std::vector<PendingRequest> BurstRequests(
    const std::shared_ptr<BurstCompletion>& burst, int64_t first_row) {
  std::vector<PendingRequest> requests(burst->size());
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].item_row = first_row + static_cast<int64_t>(i);
    requests[i].burst = burst;
    requests[i].slot = i;
  }
  return requests;
}

TEST(MicroBatcherTest, FlushesWhenBatchFills) {
  BatcherConfig config = SmallConfig();
  config.max_delay_us = 10'000'000;  // never flush on time in this test
  MicroBatcher batcher(config);
  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  for (int64_t i = 0; i < 4; ++i) futures.push_back(batcher.Enqueue(i));
  const auto batch = batcher.PopBatch();
  ASSERT_EQ(batch.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(batch[i].item_row, i);
  batcher.Close();
}

TEST(MicroBatcherTest, FlushesPartialBatchOnDeadline) {
  BatcherConfig config = SmallConfig();
  config.max_delay_us = 1000;
  MicroBatcher batcher(config);
  auto f0 = batcher.Enqueue(7);
  auto f1 = batcher.Enqueue(8);
  // Only 2 of 4 queued: PopBatch must return once the oldest request ages
  // past max_delay_us instead of waiting for a full batch.
  const auto batch = batcher.PopBatch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].item_row, 7);
  EXPECT_EQ(batch[1].item_row, 8);
  batcher.Close();
}

TEST(MicroBatcherTest, FlushHintReleasesPartialBatchWithoutTheWindow) {
  BatcherConfig config = SmallConfig();
  config.max_delay_us = 10'000'000;  // a missed hint would hang 10s here
  MicroBatcher batcher(config);
  auto f0 = batcher.Enqueue(7);
  auto f1 = batcher.Enqueue(8);
  batcher.FlushHint();  // producer: this burst is over, no co-riders coming
  const auto start = std::chrono::steady_clock::now();
  const auto batch = batcher.PopBatch();
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].item_row, 7);
  EXPECT_EQ(batch[1].item_row, 8);
  EXPECT_LT(waited, std::chrono::seconds(5)) << "hint did not cut the window";

  // The hint only covers requests admitted before it: a later enqueue opens
  // a fresh window (released here by a second hint, not by aging out).
  auto f2 = batcher.Enqueue(9);
  batcher.FlushHint();
  const auto next = batcher.PopBatch();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].item_row, 9);
  batcher.Close();
}

TEST(MicroBatcherTest, FlushHintOnEmptyQueueIsANoOp) {
  BatcherConfig config = SmallConfig();
  config.max_delay_us = 1000;
  MicroBatcher batcher(config);
  batcher.FlushHint();  // nothing queued: must not poison the next window
  // A request admitted after the empty-queue hint still gets coalescing:
  // the second request enqueued during its window must ride the same batch.
  auto f0 = batcher.Enqueue(1);
  auto f1 = batcher.Enqueue(2);
  const auto batch = batcher.PopBatch();
  EXPECT_EQ(batch.size(), 2u);
  batcher.Close();
}

TEST(MicroBatcherTest, OversizedBurstSplitsIntoBatches) {
  MicroBatcher batcher(SmallConfig());
  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  for (int64_t i = 0; i < 7; ++i) futures.push_back(batcher.Enqueue(i));
  EXPECT_EQ(batcher.PopBatch().size(), 4u);
  EXPECT_EQ(batcher.PopBatch().size(), 3u);
  batcher.Close();
}

TEST(MicroBatcherTest, RejectPolicyShedsLoadWhenFull) {
  BatcherConfig config = SmallConfig();
  config.admission = AdmissionPolicy::kRejectWithStatus;
  RuntimeStats stats;
  MicroBatcher batcher(config, &stats);
  std::vector<std::future<StatusOr<ScoreResult>>> admitted;
  for (size_t i = 0; i < config.queue_capacity; ++i) {
    admitted.push_back(batcher.Enqueue(static_cast<int64_t>(i)));
  }
  auto rejected = batcher.Enqueue(99);
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().status().code(), StatusCode::kResourceExhausted);
  const auto snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.enqueued, static_cast<int64_t>(config.queue_capacity));
  EXPECT_EQ(snapshot.rejected, 1);
  // Draining one batch frees capacity again.
  EXPECT_EQ(batcher.PopBatch().size(), config.max_batch_size);
  auto readmitted = batcher.Enqueue(100);
  EXPECT_NE(readmitted.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  batcher.Close();
}

TEST(MicroBatcherTest, BlockPolicyWaitsForSpace) {
  BatcherConfig config = SmallConfig();
  config.admission = AdmissionPolicy::kBlock;
  MicroBatcher batcher(config);
  for (size_t i = 0; i < config.queue_capacity; ++i) {
    batcher.Enqueue(static_cast<int64_t>(i));
  }
  std::atomic<bool> admitted{false};
  std::thread producer([&batcher, &admitted] {
    batcher.Enqueue(42);  // must block until a batch is popped
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(batcher.PopBatch().size(), config.max_batch_size);
  producer.join();
  EXPECT_TRUE(admitted.load());
  batcher.Close();
}

TEST(MicroBatcherTest, CloseDrainsQueuedRequestsThenSignalsExit) {
  MicroBatcher batcher(SmallConfig());
  for (int64_t i = 0; i < 6; ++i) batcher.Enqueue(i);
  batcher.Close();
  // Queued work still comes out (zero drops on shutdown)...
  EXPECT_EQ(batcher.PopBatch().size(), 4u);
  EXPECT_EQ(batcher.PopBatch().size(), 2u);
  // ...and only then does PopBatch signal the workers to exit.
  EXPECT_TRUE(batcher.PopBatch().empty());
}

TEST(MicroBatcherTest, QueueDepthGaugeTracksEveryMutationBackToZero) {
  // Regression: the gauge used to be published by two ad-hoc call sites,
  // and the closed-and-drained exit never touched it — a worker observing
  // that path could leave a stale nonzero depth on the exporter forever.
  // All publications now go through one locked accounting point; the gauge
  // must track the queue exactly at every step and read 0 after drain.
  RuntimeStats stats;
  MicroBatcher batcher(SmallConfig(), &stats);
  const auto gauge_depth = [&stats]() -> double {
    for (const auto& [name, value] : stats.registry().Collect().gauges) {
      if (name == "queue_depth") return value;
    }
    return -1.0;
  };

  std::vector<std::future<StatusOr<ScoreResult>>> futures;
  for (int64_t i = 0; i < 6; ++i) {
    futures.push_back(batcher.Enqueue(i));
    EXPECT_EQ(gauge_depth(), static_cast<double>(i + 1));
  }
  EXPECT_EQ(batcher.PopBatch().size(), 4u);
  EXPECT_EQ(gauge_depth(), 2.0);
  batcher.Close();
  EXPECT_EQ(batcher.PopBatch().size(), 2u);
  EXPECT_EQ(gauge_depth(), 0.0);
  // The closed-and-drained exit republishes too.
  EXPECT_TRUE(batcher.PopBatch().empty());
  EXPECT_EQ(gauge_depth(), 0.0);
  EXPECT_EQ(batcher.queue_depth(), 0u);
}

TEST(MicroBatcherTest, EnqueueAfterCloseFailsFast) {
  MicroBatcher batcher(SmallConfig());
  batcher.Close();
  auto future = batcher.Enqueue(1);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get().status().code(), StatusCode::kFailedPrecondition);
}

TEST(MicroBatcherTest, CloseUnblocksBlockedProducers) {
  BatcherConfig config = SmallConfig();
  config.admission = AdmissionPolicy::kBlock;
  MicroBatcher batcher(config);
  for (size_t i = 0; i < config.queue_capacity; ++i) {
    batcher.Enqueue(static_cast<int64_t>(i));
  }
  std::thread producer([&batcher] {
    auto future = batcher.Enqueue(42);
    EXPECT_EQ(future.get().status().code(), StatusCode::kFailedPrecondition);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  batcher.Close();
  producer.join();
}

TEST(MicroBatcherTest, ManyProducersTwoConsumersLoseNothing) {
  BatcherConfig config;
  config.max_batch_size = 16;
  config.max_delay_us = 500;
  config.queue_capacity = 64;
  MicroBatcher batcher(config);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;

  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  consumers.reserve(2);
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&batcher, &consumed] {
      for (;;) {
        auto batch = batcher.PopBatch();
        if (batch.empty()) return;
        consumed.fetch_add(static_cast<int>(batch.size()));
      }
    });
  }
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&batcher] {
      for (int i = 0; i < kPerProducer; ++i) {
        batcher.Enqueue(i);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  batcher.Close();
  for (auto& consumer : consumers) consumer.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
}

TEST(MicroBatcherTest, ConfigValidateCatchesDegenerateShapes) {
  EXPECT_TRUE(SmallConfig().Validate().ok());

  BatcherConfig config = SmallConfig();
  config.max_batch_size = 0;  // batches could never form
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  config = SmallConfig();
  config.queue_capacity = 0;  // every enqueue would reject or hang
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  config = SmallConfig();
  config.queue_capacity = config.max_batch_size - 1;  // can't hold a batch
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  config = SmallConfig();
  config.max_delay_us = -5;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(MicroBatcherTest, TryEnqueueReturnsFutureOnAdmission) {
  MicroBatcher batcher(SmallConfig());
  std::future<StatusOr<ScoreResult>> future;
  const Status status = batcher.TryEnqueue(
      42, std::chrono::steady_clock::time_point::max(), &future);
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(future.valid());
  const auto batch = batcher.PopBatch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].item_row, 42);
  EXPECT_EQ(batch[0].deadline, std::chrono::steady_clock::time_point::max());
  batcher.Close();
}

TEST(MicroBatcherTest, TryEnqueueRejectsWhenFullWithoutTouchingFuture) {
  BatcherConfig config = SmallConfig();
  config.admission = AdmissionPolicy::kRejectWithStatus;
  MicroBatcher batcher(config);
  std::vector<std::future<StatusOr<ScoreResult>>> admitted;
  for (size_t i = 0; i < config.queue_capacity; ++i) {
    admitted.push_back(batcher.Enqueue(static_cast<int64_t>(i)));
  }
  std::future<StatusOr<ScoreResult>> future;
  const Status status = batcher.TryEnqueue(
      99, std::chrono::steady_clock::time_point::max(), &future);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // The caller's future is untouched so it can substitute a degraded answer.
  EXPECT_FALSE(future.valid());
  batcher.Close();
}

TEST(MicroBatcherTest, TryEnqueueBlockingWaitsOnlyUntilDeadline) {
  MicroBatcher batcher(SmallConfig());  // kBlock admission
  std::vector<std::future<StatusOr<ScoreResult>>> admitted;
  for (size_t i = 0; i < SmallConfig().queue_capacity; ++i) {
    admitted.push_back(batcher.Enqueue(static_cast<int64_t>(i)));
  }
  // Queue full, nobody draining: a deadline-carrying enqueue gives up at the
  // deadline instead of blocking forever.
  const auto start = std::chrono::steady_clock::now();
  std::future<StatusOr<ScoreResult>> future;
  const Status status = batcher.TryEnqueue(
      99, start + std::chrono::milliseconds(50), &future);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(future.valid());
  EXPECT_GE(waited, std::chrono::milliseconds(50));
  EXPECT_LT(waited, std::chrono::seconds(5));

  // With space available the same call admits immediately.
  batcher.PopBatch();
  const Status admitted_status = batcher.TryEnqueue(
      100, std::chrono::steady_clock::now() + std::chrono::seconds(5),
      &future);
  EXPECT_TRUE(admitted_status.ok());
  EXPECT_TRUE(future.valid());
  batcher.Close();
}

TEST(MicroBatcherTest, TryEnqueueAfterCloseIsFailedPrecondition) {
  MicroBatcher batcher(SmallConfig());
  batcher.Close();
  std::future<StatusOr<ScoreResult>> future;
  const Status status = batcher.TryEnqueue(
      1, std::chrono::steady_clock::time_point::max(), &future);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(future.valid());
}

TEST(MicroBatcherTest, BurstPopsAtOnceAsOneBatchInAdmissionOrder) {
  BatcherConfig config = SmallConfig();
  config.max_batch_size = 8;
  config.max_delay_us = 10'000'000;  // a burst left to the window hangs 10s
  MicroBatcher batcher(config);
  auto burst = std::make_shared<BurstCompletion>(5);
  std::vector<PendingRequest> requests = BurstRequests(burst, 10);
  Status refused;
  ASSERT_EQ(batcher.EnqueueBurst(&requests, &refused), 5u);
  EXPECT_TRUE(refused.ok());

  const auto start = std::chrono::steady_clock::now();
  const auto batch = batcher.PopBatch();
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(batch.size(), 5u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].item_row, 10 + static_cast<int64_t>(i));
    EXPECT_EQ(batch[i].slot, i);
  }
  EXPECT_LT(waited, std::chrono::seconds(5)) << "the burst was not flushed";
  batcher.Close();
}

TEST(MicroBatcherTest, BurstSplitsIntoFullBatchesAndAFlushedTail) {
  BatcherConfig config = SmallConfig();
  config.max_batch_size = 8;
  config.max_delay_us = 10'000'000;
  config.queue_capacity = 32;
  MicroBatcher batcher(config);
  auto burst = std::make_shared<BurstCompletion>(20);
  std::vector<PendingRequest> requests = BurstRequests(burst, 0);
  Status refused;
  ASSERT_EQ(batcher.EnqueueBurst(&requests, &refused), 20u);

  const auto start = std::chrono::steady_clock::now();
  int64_t next_row = 0;
  for (const size_t expected : {size_t{8}, size_t{8}, size_t{4}}) {
    const auto batch = batcher.PopBatch();
    ASSERT_EQ(batch.size(), expected);
    for (const PendingRequest& request : batch) {
      EXPECT_EQ(request.item_row, next_row++);
    }
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5))
      << "the tail waited out the batch window";
  batcher.Close();
}

TEST(MicroBatcherTest, RejectPolicyAdmitsABurstUpToCapacity) {
  BatcherConfig config = SmallConfig();  // capacity 8
  config.admission = AdmissionPolicy::kRejectWithStatus;
  RuntimeStats stats;
  MicroBatcher batcher(config, &stats);
  std::vector<std::future<StatusOr<ScoreResult>>> singles;
  for (int64_t i = 0; i < 3; ++i) singles.push_back(batcher.Enqueue(i));

  auto burst = std::make_shared<BurstCompletion>(10);
  std::vector<PendingRequest> requests = BurstRequests(burst, 100);
  Status refused;
  // The burst holds the mutex throughout, so nothing drains under it: it
  // takes exactly the 5 free places and every later row is refused.
  EXPECT_EQ(batcher.EnqueueBurst(&requests, &refused), 5u);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.queue_depth(), 8u);
  // The refused rows stay with the caller, in order, to be answered.
  ASSERT_EQ(requests.size(), 10u);
  EXPECT_EQ(requests[5].item_row, 105);
  EXPECT_EQ(requests[9].item_row, 109);
  const auto snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.enqueued, 8);
  EXPECT_EQ(snapshot.rejected, 5);
  batcher.Close();
}

TEST(MicroBatcherTest, SingleRowsAroundABurstKeepFifoOrder) {
  BatcherConfig config = SmallConfig();
  config.max_batch_size = 8;
  config.max_delay_us = 10'000'000;
  MicroBatcher batcher(config);
  const auto no_deadline = std::chrono::steady_clock::time_point::max();
  std::future<StatusOr<ScoreResult>> before;
  ASSERT_TRUE(batcher.TryEnqueue(1, no_deadline, &before).ok());
  auto burst = std::make_shared<BurstCompletion>(3);
  std::vector<PendingRequest> requests = BurstRequests(burst, 2);
  Status refused;
  ASSERT_EQ(batcher.EnqueueBurst(&requests, &refused), 3u);
  std::future<StatusOr<ScoreResult>> after;
  ASSERT_TRUE(batcher.TryEnqueue(5, no_deadline, &after).ok());

  // The burst's flush covers the single row ahead of it; the row behind
  // rides along in the same batch.
  const auto start = std::chrono::steady_clock::now();
  const auto batch = batcher.PopBatch();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5))
      << "the burst's flush did not cover the row queued ahead of it";
  ASSERT_EQ(batch.size(), 5u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].item_row, static_cast<int64_t>(i) + 1);
  }
  EXPECT_EQ(batch[0].burst, nullptr);
  EXPECT_EQ(batch[1].burst, burst);
  EXPECT_EQ(batch[4].burst, nullptr);
  batcher.Close();
}

TEST(MicroBatcherTest, BurstCompletionWakesItsWaiterOnTheLastAnswer) {
  auto burst = std::make_shared<BurstCompletion>(3);
  ScoreResult result;
  result.score = 0.25;
  burst->Complete(0, result);
  burst->Complete(1, Status::InvalidArgument("bad row"));
  EXPECT_FALSE(burst->WaitUntil(std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(5)));
  std::vector<bool> answered;
  burst->TakeAll([&](size_t slot, StatusOr<ScoreResult>* answer) {
    EXPECT_EQ(slot, answered.size());
    answered.push_back(answer != nullptr);
  });
  EXPECT_EQ(answered, (std::vector<bool>{true, true, false}));

  std::thread late([burst] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    burst->Complete(2, ScoreResult{});
  });
  EXPECT_TRUE(burst->WaitUntil(std::chrono::steady_clock::time_point::max()));
  late.join();
  burst->TakeAll([](size_t slot, StatusOr<ScoreResult>* answer) {
    ASSERT_NE(answer, nullptr) << "slot " << slot;
    if (slot == 0) {
      EXPECT_EQ(answer->value().score, 0.25);
    } else if (slot == 1) {
      EXPECT_EQ(answer->status().code(), StatusCode::kInvalidArgument);
    }
  });
}

}  // namespace
}  // namespace atnn::runtime
