#include "obs/trace_span.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/metrics_registry.h"

namespace atnn::obs {
namespace {

TEST(ScopedTimerTest, RecordsElapsedIntoSink) {
  MetricsRegistry registry;
  Histogram& sink = registry.GetHistogram("op_us");
  {
    ScopedTimer timer(&sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const LogHistogram snapshot = sink.Snapshot();
  ASSERT_EQ(snapshot.count(), 1);
  EXPECT_GE(snapshot.max(), 2000.0);  // slept >= 2ms = 2000us
}

TEST(ScopedTimerTest, CancelSuppressesRecording) {
  MetricsRegistry registry;
  Histogram& sink = registry.GetHistogram("op_us");
  {
    ScopedTimer timer(&sink);
    timer.Cancel();
  }
  EXPECT_EQ(sink.Snapshot().count(), 0);
}

TEST(ScopedTimerTest, NullSinkIsANoOp) {
  ScopedTimer timer(nullptr);  // must not crash at destruction
  EXPECT_GE(timer.ElapsedUs(), 0.0);
}

TEST(TraceSpanTest, FeedsNamedHistogram) {
  MetricsRegistry registry;
  {
    TraceSpan span(&registry, "load_snapshot");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const LogHistogram snapshot =
      registry.GetHistogram("span.load_snapshot_us").Snapshot();
  ASSERT_EQ(snapshot.count(), 1);
  EXPECT_GE(snapshot.max(), 1000.0);
}

TEST(ThreadPoolMetricsTest, ObservesQueueAndTaskLatency) {
  MetricsRegistry registry;
  ThreadPoolMetrics metrics(&registry, "pool");
  ThreadPool pool(2);
  pool.SetObserver(&metrics);
  constexpr int kTasks = 50;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
  }
  pool.Wait();
  // A worker reports completion after publishing it (callbacks run with
  // the pool lock released), so the last task_us sample can land just
  // after Wait returns; detaching first would drop it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry.GetHistogram("pool.task_us").Snapshot().count() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  pool.SetObserver(nullptr);

  EXPECT_EQ(registry.GetCounter("pool.tasks").Value(), kTasks);
  const LogHistogram task_us =
      registry.GetHistogram("pool.task_us").Snapshot();
  EXPECT_EQ(task_us.count(), kTasks);
  EXPECT_GE(task_us.max(), 100.0);
  // Queue-depth gauge ends at 0: the pool drained.
  EXPECT_DOUBLE_EQ(registry.GetGauge("pool.queue_depth").Value(), 0.0);
}

TEST(ThreadPoolMetricsTest, ObserverCanBeDetached) {
  MetricsRegistry registry;
  ThreadPoolMetrics metrics(&registry, "pool");
  ThreadPool pool(1);
  pool.SetObserver(&metrics);
  pool.Submit([] {});
  pool.Wait();
  pool.SetObserver(nullptr);
  const int64_t observed = registry.GetCounter("pool.tasks").Value();
  pool.Submit([] {});
  pool.Wait();
  EXPECT_EQ(registry.GetCounter("pool.tasks").Value(), observed);
}

}  // namespace
}  // namespace atnn::obs
