// The benchmark's own tests: percentile reporting, the rate-ladder
// verdict, span self time and reference-speed scaling, on synthetic inputs.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "speed.h"
#include "stats.h"
#include "trace.h"

namespace atnn::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values(static_cast<size_t>(n));
  std::iota(values.begin(), values.end(), 1.0);
  std::shuffle(values.begin(), values.end(), std::mt19937(7));
  return values;
}

TEST(NearestRankTest, PicksTheValueAtRankCeilQN) {
  std::vector<double> sorted = OneTo(100);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(NearestRank(sorted, 0.5), 50.0);
  EXPECT_EQ(NearestRank(sorted, 0.99), 99.0);
  EXPECT_EQ(NearestRank(sorted, 0.995), 100.0);
  EXPECT_EQ(NearestRank(sorted, 1.0), 100.0);
  EXPECT_EQ(NearestRank(sorted, 0.001), 1.0);
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
}

TEST(SamplesBeyondTest, CountsSamplesAboveThePercentile) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0);
}

TEST(HighestSupportedQuantileTest, LeavesTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedQuantile(100000), 0.9999);
  EXPECT_EQ(HighestSupportedQuantile(99999), 0.999);
  EXPECT_EQ(HighestSupportedQuantile(10000), 0.999);
  EXPECT_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_EQ(HighestSupportedQuantile(999), 0.95);
  EXPECT_EQ(HighestSupportedQuantile(200), 0.95);
  EXPECT_EQ(HighestSupportedQuantile(100), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(20), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(19), 0.0);
  EXPECT_EQ(HighestSupportedQuantile(0), 0.0);
}

TEST(SummarizeTest, ReportsMedianTailAndCount) {
  std::vector<double> values = OneTo(1000);
  const Summary summary = Summarize(&values);
  EXPECT_EQ(summary.count, 1000);
  EXPECT_EQ(summary.p50, 500.0);
  EXPECT_EQ(summary.tail_q, 0.99);
  EXPECT_EQ(summary.tail, 990.0);
  EXPECT_EQ(summary.p99, 990.0);
}

TEST(SummarizeTest, SmallSampleFallsBackToALowerTail) {
  std::vector<double> values = OneTo(150);
  const Summary summary = Summarize(&values);
  EXPECT_EQ(summary.tail_q, 0.9);
  EXPECT_EQ(summary.tail, 135.0);
  std::vector<double> empty;
  EXPECT_EQ(Summarize(&empty).count, 0);
}

TEST(SummarizeTest, FormatsLabelAndCount) {
  std::vector<double> values = OneTo(1000);
  EXPECT_EQ(FormatSummary(Summarize(&values), "us"),
            "p50 500.0 us, p99 990.0 us (n=1000)");
  EXPECT_EQ(QuantileLabel(0.999), "p99.9");
  EXPECT_EQ(QuantileLabel(0.5), "p50");
}

TEST(MedianTest, OddAndEvenSamples) {
  std::vector<double> odd = {3.0, 1.0, 2.0};
  EXPECT_EQ(Median(&odd), 2.0);
  std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(Median(&even), 2.5);
  std::vector<double> empty;
  EXPECT_EQ(Median(&empty), 0.0);
}

TEST(WindowedQuantileTest, OneBadWindowDoesNotMoveTheMedian) {
  // 10 windows of 1000: the 99th percentile of each is 990, except one
  // window where a stall pushed every sample up by 10000.
  std::vector<double> values;
  for (int w = 0; w < 10; ++w) {
    std::vector<double> window = OneTo(1000);
    if (w == 3) {
      for (double& v : window) v += 10000.0;
    }
    values.insert(values.end(), window.begin(), window.end());
  }
  EXPECT_EQ(WindowedQuantile(values, 0.99), 990.0);
  std::vector<double> pooled = values;
  EXPECT_GT(Summarize(&pooled).p99, 10000.0);
}

TEST(WindowedQuantileTest, AtMostTwentyWindows) {
  // Forty blocks of 1,000 alternate between 1 and 5. Twenty windows of
  // 2,000 each hold one block of each, so every window's median is 1;
  // forty windows would split evenly and read 3.
  std::vector<double> values;
  for (int block = 0; block < 40; ++block) {
    values.resize(values.size() + 1000, block % 2 == 0 ? 1.0 : 5.0);
  }
  EXPECT_EQ(WindowedQuantile(values, 0.5), 1.0);
}

TEST(WindowedQuantileTest, SmallSamplesUseOneWindow) {
  std::vector<double> values = OneTo(500);
  EXPECT_EQ(WindowedQuantile(values, 0.99), 495.0);
  EXPECT_EQ(WindowedQuantile({}, 0.99), 0.0);
}

TEST(WindowedShareTest, MedianOfPerWindowShares) {
  std::vector<char> flags(4000, 1);
  for (int i = 0; i < 1000; ++i) flags[static_cast<size_t>(i)] = 0;
  for (int i = 1000; i < 1100; ++i) flags[static_cast<size_t>(i)] = 0;
  // Window shares: 0, 0.9, 1, 1 -> median 0.95.
  EXPECT_DOUBLE_EQ(WindowedShare(flags), 0.95);
  EXPECT_EQ(WindowedShare({}), 0.0);
}

Rung GoodRung(double rps) {
  Rung rung;
  rung.offered_rps = rps;
  rung.attempted = static_cast<int64_t>(rps * 2.0);
  rung.fresh_share = 1.0;
  rung.achieved_rps = rps;
  rung.p99_us = 1500.0;
  rung.late_p99_us = 20.0;
  rung.backlog = 3;
  return rung;
}

TEST(LadderTest, RungMeetsSloOnlyWhenEveryConditionHolds) {
  const Slo slo{5000.0, 0.99, 1000.0};
  EXPECT_TRUE(RungMeetsSlo(GoodRung(1000), slo));

  Rung slow = GoodRung(1000);
  slow.p99_us = 5001.0;
  EXPECT_FALSE(RungMeetsSlo(slow, slo));

  Rung late = GoodRung(1000);
  late.late_p99_us = 1500.0;
  EXPECT_FALSE(RungMeetsSlo(late, slo));

  Rung degraded = GoodRung(1000);
  degraded.fresh_share = 0.98;
  EXPECT_FALSE(RungMeetsSlo(degraded, slo));

  // One latency limit's worth of arrivals at 1000 req/s is 5 requests.
  Rung backlog = GoodRung(1000);
  backlog.backlog = 5;
  EXPECT_TRUE(RungMeetsSlo(backlog, slo));
  backlog.backlog = 6;
  EXPECT_FALSE(RungMeetsSlo(backlog, slo));

  Rung empty = GoodRung(1000);
  empty.attempted = 0;
  EXPECT_FALSE(RungMeetsSlo(empty, slo));
}

TEST(LadderTest, BestRungIsTheHighestRatePassing) {
  const Slo slo{5000.0, 0.99, 1000.0};
  std::vector<Rung> rungs = {GoodRung(1000), GoodRung(2000), GoodRung(4000),
                             GoodRung(8000)};
  EXPECT_EQ(BestRung(rungs, slo), 3);
  rungs[3].p99_us = 9000.0;
  EXPECT_EQ(BestRung(rungs, slo), 2);
  // A noisy failure below does not cap a passing rung above it.
  rungs[1].late_p99_us = 5000.0;
  EXPECT_EQ(BestRung(rungs, slo), 2);
  for (Rung& rung : rungs) rung.p99_us = 9000.0;
  EXPECT_EQ(BestRung(rungs, slo), -1);
  EXPECT_EQ(BestRung({}, slo), -1);
}

TEST(TracerTest, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer tracer(true);
  Tracer::Buffer* buffer = tracer.NewBuffer();
  const uint16_t parent_name = tracer.Intern("parent");
  const uint16_t child_name = tracer.Intern("child");
  const Clock::time_point t0 = Clock::now();
  const auto at = [t0](int us) { return t0 + std::chrono::microseconds(us); };
  const uint64_t root = tracer.NewId();
  // Children [10,30] and [20,50] overlap; [60,70] is separate; [90,120]
  // sticks out of the parent and counts only up to its end.
  tracer.Record(buffer, child_name, 1, root, at(10), at(30));
  tracer.Record(buffer, child_name, 1, root, at(20), at(50));
  tracer.Record(buffer, child_name, 1, root, at(60), at(70));
  tracer.Record(buffer, child_name, 1, root, at(90), at(120));
  tracer.RecordWithId(buffer, root, parent_name, 1, 0, at(0), at(100));
  const std::vector<SpanStats> stats = tracer.Aggregate();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "parent");
  EXPECT_EQ(stats[0].count, 1);
  EXPECT_NEAR(stats[0].total_ms, 0.100, 1e-9);
  EXPECT_NEAR(stats[0].self_ms, 0.100 - 0.060, 1e-9);
  EXPECT_EQ(stats[1].count, 4);
  EXPECT_NEAR(stats[1].self_ms, stats[1].total_ms, 1e-9);
  EXPECT_EQ(tracer.num_spans(), 5u);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  Tracer::Buffer* buffer = tracer.NewBuffer();
  const uint16_t name = tracer.Intern("x");
  EXPECT_EQ(tracer.Record(buffer, name, 0, 0, Clock::now(), Clock::now()),
            0u);
  { ScopedSpan span(&tracer, buffer, name, 0, 0); }
  EXPECT_EQ(tracer.num_spans(), 0u);
}

TEST(ReferenceScaleTest, NominalOverTheMeanOfBeforeAndAfter) {
  EXPECT_DOUBLE_EQ(ReferenceScale(140.0, 140.0, 140.0), 1.0);
  EXPECT_DOUBLE_EQ(ReferenceScale(140.0, 210.0, 350.0), 0.5);
}

TEST(ProcessCpuTest, CountsWorkNotSleep) {
  const double start_us = ProcessCpuUs();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const double slept_us = ProcessCpuUs() - start_us;
  EXPECT_LT(slept_us, 15000.0);
  volatile double sink = 0.0;
  const auto busy_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  while (std::chrono::steady_clock::now() < busy_until) sink = sink + 1.0;
  EXPECT_GT(ProcessCpuUs() - start_us - slept_us, 5000.0);
}

TEST(PinnedThreadsTest, TakesReferencesAndGivesTheCpusBack) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  std::atomic<bool> stop{false};
  std::thread other([&stop] {
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  {
    PinnedThreads pinned;
    EXPECT_EQ(pinned.others(), 1u);
    pinned.TakeReference();
    pinned.TakeReference();
    ASSERT_EQ(pinned.others_reference_us().size(), 2u);
    EXPECT_GT(pinned.others_reference_us()[0], 0.0);
    EXPECT_TRUE(std::isfinite(pinned.CallerScale(0)));
    EXPECT_GT(pinned.CallerScale(0), 0.0);
    EXPECT_GT(pinned.OthersScale(0), 0.0);
  }
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
  stop = true;
  other.join();
}

}  // namespace
}  // namespace atnn::perfbench
