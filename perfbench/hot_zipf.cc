// hot_zipf: open-loop single-row requests, Poisson arrivals at a fixed
// ladder of rates, rows Zipf(1.1) over the new arrivals, score cache warm
// before timing. The cache answers nearly every request, so the runtime
// layer (admission, MicroBatcher queueing, cache probe, promise
// completion) does the work and the forward pass almost none.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "openloop.h"
#include "probes.h"
#include "speed.h"
#include "stats.h"
#include "world.h"

namespace atnn::perfbench {

namespace {

constexpr int kSetups = 7;
/// Publish-and-rewarm rounds per set-up; publish_ms is their median.
constexpr int kPublishes = 10;
constexpr double kZipfAlpha = 1.1;
/// Offered rates, requests/s, fixed here so every commit sees the same
/// load. Each rung gets an equal share of the run.
constexpr double kLadderRps[] = {8000, 32000, 128000};
/// The rung whose latency is printed as req_p50_us / req_p90_us / req_p99_us.
constexpr int kNominalRung = 1;
constexpr double kSloP99Us = 20000.0;
constexpr double kLateP99LimitUs = 20000.0;

runtime::RuntimeConfig ServingConfig() {
  runtime::RuntimeConfig config;
  config.num_workers = 2;  // + generator + collector = 4 threads
  config.batcher.max_batch_size = kServingMaxBatch;
  config.batcher.max_delay_us = 1000;
  config.batcher.queue_capacity = 8192;
  config.batcher.admission = runtime::AdmissionPolicy::kBlock;
  return config;
}

struct Setup {
  World world;
  std::unique_ptr<runtime::InferenceRuntime> runtime;
  uint64_t version = 0;
  std::vector<double> publish_ms;
};

/// Everything a deployment does before serving: world, model, predictor,
/// runtime, publish, and a warm score cache over the new arrivals.
std::unique_ptr<Setup> SetUp(Report* report) {
  auto setup = std::make_unique<Setup>();
  setup->world = BuildWorld(WorldSpec{});
  setup->runtime = std::make_unique<runtime::InferenceRuntime>(ServingConfig());
  const runtime::ServingSnapshot snapshot =
      SnapshotOf(setup->world, setup->world.model, setup->world.predictor);
  // Each round publishes and re-warms the score cache over the new
  // arrivals. publish_ms is what a hot swap costs the hot set: the Publish
  // call plus the forward passes that refill the cache, as the runtime's
  // own score_us times them, so scheduler wake-ups in between (host noise,
  // not work) do not count. Both parts are taken at reference speed: the
  // caller and the runtime workers are pinned for the rounds and the
  // reference time is taken on their CPUs before and after (speed.h).
  PinnedThreads pinned;
  pinned.TakeReference();
  std::vector<double> call_ms;
  std::vector<double> forward_ms;
  for (int i = 0; i < kPublishes; ++i) {
    const double forward_us_before = setup->runtime->stats().score_us.sum();
    const auto start = Clock::now();
    auto published = setup->runtime->Publish(snapshot);
    const double publish_call_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (!published.ok()) {
      report->Fail("publish rejected: " + published.status().ToString());
      return setup;
    }
    setup->version = published.value();
    std::vector<std::future<StatusOr<runtime::ScoreResult>>> warm;
    for (const int64_t row : setup->world.dataset.new_items) {
      warm.push_back(setup->runtime->ScoreAsync(row));
    }
    setup->runtime->FlushHint();
    for (auto& future : warm) {
      if (!future.get().ok()) report->Fail("cache warm-up request failed");
    }
    call_ms.push_back(publish_call_ms);
    forward_ms.push_back(
        (setup->runtime->stats().score_us.sum() - forward_us_before) * 1e-3);
  }
  pinned.TakeReference();
  for (int i = 0; i < kPublishes; ++i) {
    setup->publish_ms.push_back(call_ms[i] * pinned.CallerScale(0) +
                                forward_ms[i] * pinned.OthersScale(0));
  }
  return setup;
}

}  // namespace

void RunHotZipf(const RunOptions& options, Tracer* tracer, Report* report) {
  std::vector<double> setup_s;
  std::vector<double> publish_ms;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    setup_s.push_back(
        SecondsAtReferenceSpeed([&] { setup = SetUp(report); }));
    publish_ms.insert(publish_ms.end(), setup->publish_ms.begin(),
                      setup->publish_ms.end());
  }
  if (!report->correct) return;
  const World& world = setup->world;
  runtime::InferenceRuntime& runtime = *setup->runtime;

  auto reference =
      ReferenceScores(*world.model, *world.predictor, *world.item_profiles,
                      world.dataset.new_items);
  if (!reference.ok()) {
    report->Fail("reference scoring failed: " + reference.status().ToString());
    return;
  }

  // Inputs: which arrivals are hot and the arrival schedule of each rung.
  Rng rng(HashCombine(options.seed, 0x686f745f7a697066ULL));
  std::vector<int64_t> hot_rows = world.dataset.new_items;
  for (size_t i = hot_rows.size(); i > 1; --i) {
    std::swap(hot_rows[i - 1], hot_rows[rng.UniformInt(i)]);
  }
  constexpr size_t kRungs = std::size(kLadderRps);
  const double rung_seconds = options.seconds / static_cast<double>(kRungs);
  std::vector<Schedule> schedules;
  for (const double rate : kLadderRps) {
    schedules.push_back(
        PoissonZipfSchedule(&rng, rate, rung_seconds, hot_rows, kZipfAlpha));
  }

  const int64_t locks_before = runtime.metrics_registry().mutex_acquisitions();
  std::vector<std::vector<Outcome>> outcomes;
  std::vector<Clock::time_point> rung_starts;
  uint64_t first_request = 0;
  for (const Schedule& schedule : schedules) {
    OpenLoop::Config config;
    config.runtime = &runtime;
    config.tracer = tracer;
    config.first_request = first_request;
    first_request += schedule.rows.size();
    OpenLoop loop(config, &schedule);
    loop.Start(Clock::now() + std::chrono::milliseconds(2));
    loop.Join();
    outcomes.push_back(loop.outcomes());
    rung_starts.push_back(loop.start());
  }
  const int64_t mutex_locks =
      runtime.metrics_registry().mutex_acquisitions() - locks_before;

  const std::vector<double>& ref = reference.value();
  const uint64_t version = setup->version;
  const auto correct = [&](const Outcome& outcome) {
    return outcome.version == version &&
           SameBits(outcome.score, ref[static_cast<size_t>(outcome.row)]);
  };
  const Slo slo{kSloP99Us, 0.99, kLateP99LimitUs};
  std::vector<Rung> rungs;
  Summary nominal;
  Tally nominal_tally;
  Rung nominal_rung;
  int64_t nominal_backlog_end = 0;
  int64_t fresh_in_slo = 0;
  std::printf("rate ladder (SLO: windowed p99 <= %.0f us, generator late "
              "p99 <= %.0f us, >= 99%% fresh in time, no growing backlog)\n",
              kSloP99Us, kLateP99LimitUs);
  for (size_t r = 0; r < kRungs; ++r) {
    Tally tally = TallyOutcomes(outcomes[r], kSloP99Us, correct);
    report->attempted += tally.attempted;
    report->failed += tally.failed();
    fresh_in_slo += tally.fresh_in_slo;
    if (tally.wrong > 0) {
      report->Fail(std::to_string(tally.wrong) +
                   " fresh score(s) differ from core::ScoreItemsWithPlan");
    }
    if (tally.errors > 0) {
      report->Fail(std::to_string(tally.errors) + " request(s) errored");
    }
    const Clock::time_point end =
        rung_starts[r] + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(rung_seconds));
    Rung rung;
    rung.offered_rps = kLadderRps[r];
    rung.attempted = tally.attempted;
    rung.fresh_share = WindowedShare(tally.in_slo);
    rung.achieved_rps = static_cast<double>(tally.fresh_in_slo) / rung_seconds;
    rung.backlog = MedianBacklog(outcomes[r],
                                 rung_starts[r] + (end - rung_starts[r]) / 2,
                                 end);
    rung.late_p99_us = WindowedQuantile(tally.late_us, 0.99);
    rung.p99_us = WindowedQuantile(tally.latency_us, 0.99);
    const int64_t backlog_end = BacklogAt(outcomes[r], end);
    std::vector<double> latency = tally.latency_us;
    const Summary summary = Summarize(&latency);
    std::printf("  %6.0f req/s: %s; windowed p99 %.1f us; late p99 %.1f us; "
                "backlog %lld (%lld at end); %s\n",
                rung.offered_rps, FormatSummary(summary, "us").c_str(),
                rung.p99_us, rung.late_p99_us,
                static_cast<long long>(rung.backlog),
                static_cast<long long>(backlog_end),
                RungMeetsSlo(rung, slo) ? "meets SLO" : "MISSES SLO");
    rungs.push_back(rung);
    if (static_cast<int>(r) == kNominalRung) {
      nominal = summary;
      nominal_tally = std::move(tally);
      nominal_rung = rung;
      nominal_backlog_end = backlog_end;
    }
  }
  const int best = BestRung(rungs, slo);
  const double max_rps = best >= 0 ? rungs[best].achieved_rps : 0.0;

  report->EndToEnd("setup_s", Median(&setup_s), "s");
  report->EndToEnd("rows_per_s", max_rps, "1/s");
  report->EndToEnd("publish_ms", Median(&publish_ms), "ms");
  report->EndToEnd("fresh_frac",
                   static_cast<double>(fresh_in_slo) /
                       static_cast<double>(
                           std::max<int64_t>(1, report->attempted)),
                   "ratio");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  report->Detail("max_rps_at_slo", max_rps, "1/s");
  report->Detail("req_p50_us", nominal.p50, "us");
  report->Detail("req_p90_us", WindowedQuantile(nominal_tally.latency_us, 0.9),
                 "us");
  report->Detail("req_p99_us", nominal_rung.p99_us, "us");
  report->Detail("req_tail_q", nominal.tail_q, "quantile");
  report->Detail("req_samples", static_cast<double>(nominal.count), "count");
  report->Detail("fail_frac",
                 static_cast<double>(report->failed) /
                     static_cast<double>(std::max<int64_t>(1,
                                                           report->attempted)),
                 "ratio");
  report->Detail("gen.late_p99_us", nominal_rung.late_p99_us, "us");
  report->Detail("gen.backlog_end",
                 static_cast<double>(nominal_backlog_end), "count");

  RuntimeTotals totals;
  totals.Add(runtime.stats());
  ReportRuntimeLayer(totals, mutex_locks, report);
  if (!options.trace) return;
  ProbeInputs probes;
  probes.world = &world;
  probes.model = world.model.get();
  probes.predictor = world.predictor.get();
  for (const Schedule& schedule : schedules) {
    probes.rows.insert(probes.rows.end(), schedule.rows.begin(),
                       schedule.rows.end());
  }
  probes.batch_rows_mean = totals.batch_size.Mean();
  probes.seed = options.seed;
  RunProbes(probes, tracer, report);
}

}  // namespace atnn::perfbench
