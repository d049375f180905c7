#include "obs/metrics_registry.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace atnn::obs {
namespace {

TEST(CounterTest, SumsAcrossThreads) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("events");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, IncrementWithDelta) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("batch");
  counter.Increment(64);
  counter.Increment(36);
  EXPECT_EQ(counter.Value(), 100);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("depth");
  gauge.Set(5.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 5.0);
  gauge.Add(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 7.5);
  gauge.Set(1.0);  // last writer wins
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.0);
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("latency_us");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<double>(10 * (t + 1)));
        hist.Record(static_cast<double>(10 * (t + 1)), /*count=*/3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const LogHistogram snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.count(), 4 * kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snapshot.max(), 80.0);
  EXPECT_EQ(snapshot.invalid(), 0);
}

/// Every observable of a histogram view: count, sum, max, invalid, and the
/// bucket counts through the percentiles they interpolate.
void ExpectSameSnapshot(const LogHistogram& a, const LogHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.invalid(), b.invalid());
  for (int i = 0; i <= 20; ++i) {
    const double q = i / 20.0;
    EXPECT_EQ(a.Percentile(q), b.Percentile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, RecordWithCountEqualsRepeatedRecords) {
  // Values whose multiples are exact in a double, so n single additions
  // and one multiplication give the same sum; they span bucket 0, the
  // middle buckets, the clamped top bucket and the negative clamp.
  const double values[] = {0.0,    0.5,     3.0,   1024.0, 5e6,
                           -2.0,   std::numeric_limits<double>::infinity()};
  const int64_t counts[] = {1, 7, 64};
  MetricsRegistry registry;
  Histogram& counted = registry.GetHistogram("counted");
  Histogram& repeated = registry.GetHistogram("repeated");
  for (const double value : values) {
    for (const int64_t n : counts) {
      counted.Record(value, n);
      for (int64_t i = 0; i < n; ++i) repeated.Record(value);
      ExpectSameSnapshot(counted.Snapshot(), repeated.Snapshot());
    }
  }
}

TEST(HistogramTest, CountedNanIsInvalidAndNonPositiveCountRecordsNothing) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("h");
  hist.Record(std::numeric_limits<double>::quiet_NaN(), 5);
  LogHistogram snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.invalid(), 5);
  EXPECT_EQ(snapshot.count(), 0);

  hist.Record(10.0, 0);
  hist.Record(10.0, -3);
  hist.Record(std::numeric_limits<double>::quiet_NaN(), 0);
  snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.invalid(), 5);
  EXPECT_EQ(snapshot.count(), 0);
  EXPECT_EQ(snapshot.sum(), 0.0);
  EXPECT_EQ(snapshot.max(), 0.0);
}

TEST(HistogramTest, ShardedNanAndInfHandlingMatchesView) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("h");
  hist.Record(std::numeric_limits<double>::quiet_NaN());
  hist.Record(std::numeric_limits<double>::infinity());
  hist.Record(50.0);
  const LogHistogram snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.count(), 2);  // NaN dropped
  EXPECT_EQ(snapshot.invalid(), 1);
  EXPECT_TRUE(std::isfinite(snapshot.sum()));
  EXPECT_DOUBLE_EQ(snapshot.max(), LogHistogram::ValueClamp());
}

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.GetHistogram("x");  // separate namespace per kind
  Histogram& h2 = registry.GetHistogram("x");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, RecordingNeverTakesTheRegistryMutex) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  Gauge& gauge = registry.GetGauge("g");
  Histogram& hist = registry.GetHistogram("h");
  const int64_t locks_after_registration = registry.mutex_acquisitions();
  for (int i = 0; i < 1000; ++i) {
    counter.Increment();
    gauge.Set(static_cast<double>(i));
    hist.Record(static_cast<double>(i));
  }
  // Reading through handles is also lock-free.
  (void)counter.Value();
  (void)gauge.Value();
  (void)hist.Snapshot();
  EXPECT_EQ(registry.mutex_acquisitions(), locks_after_registration);
  // Collect() is the mutexed read; it must show up in the count.
  (void)registry.Collect();
  EXPECT_GT(registry.mutex_acquisitions(), locks_after_registration);
}

TEST(MetricsRegistryTest, CollectReturnsSortedCompleteSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("z_counter").Increment(3);
  registry.GetCounter("a_counter").Increment(1);
  registry.GetGauge("gauge").Set(2.5);
  registry.GetHistogram("hist").Record(42.0);

  const MetricsSnapshot snapshot = registry.Collect();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a_counter");
  EXPECT_EQ(snapshot.counters[0].second, 1);
  EXPECT_EQ(snapshot.counters[1].first, "z_counter");
  EXPECT_EQ(snapshot.counters[1].second, 3);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 2.5);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.count(), 1);
}

TEST(MetricsRegistryTest, HandlesStayValidWhileRegistryGrows) {
  MetricsRegistry registry;
  Counter& first = registry.GetCounter("first");
  first.Increment();
  // Registering many more metrics must not move `first` (node-based map +
  // unique_ptr pinning).
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler_" + std::to_string(i)).Increment();
  }
  first.Increment();
  EXPECT_EQ(first.Value(), 2);
  EXPECT_EQ(registry.GetCounter("first").Value(), 2);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndRecording) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Every thread registers a mix of shared and private names while
      // hammering them — exercises find-or-emplace under contention.
      Counter& shared = registry.GetCounter("shared");
      Counter& mine = registry.GetCounter("private_" + std::to_string(t));
      for (int i = 0; i < 2000; ++i) {
        shared.Increment();
        mine.Increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared").Value(), kThreads * 2000);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.GetCounter("private_" + std::to_string(t)).Value(),
              2000);
  }
}

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

}  // namespace
}  // namespace atnn::obs
