// stream_publish: a StreamingTrainer runs arrival-stream days (train,
// eval, deep copy, compile, Publish) into a live InferenceRuntime while
// hot_zipf-style traffic arrives at a lower fixed rate. Same serving
// layers as hot_zipf, but writes run beside the reads: training competes
// for cores and every publish empties the score cache. This is where a
// serving gain bought at the cost of training or publishing shows.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "openloop.h"
#include "probes.h"
#include "sim/arrival_stream.h"
#include "speed.h"
#include "stats.h"
#include "stream/streaming_trainer.h"
#include "world.h"

namespace atnn::perfbench {

namespace {

using Millis = std::chrono::duration<double, std::milli>;

constexpr int kSetups = 7;
constexpr double kZipfAlpha = 1.1;
constexpr double kOfferedRps = 4000.0;
constexpr double kSloP99Us = 20000.0;
constexpr int kDaysPerStream = 12;
constexpr int kFeedbackPerItem = 40;
/// Requests due this close to a publish count toward the publish-window
/// tail (the cost of a hot swap and the cache refill after it).
constexpr auto kWindowBefore = std::chrono::milliseconds(20);
constexpr auto kWindowAfter = std::chrono::milliseconds(50);

runtime::RuntimeConfig ServingConfig() {
  runtime::RuntimeConfig config;
  // + trainer (the calling thread) + generator + collector = 4 threads.
  config.num_workers = 1;
  config.batcher.max_batch_size = kServingMaxBatch;
  config.batcher.max_delay_us = 1000;
  config.batcher.queue_capacity = 8192;
  config.batcher.admission = runtime::AdmissionPolicy::kBlock;
  return config;
}

/// What the publish hook saw: one entry per accepted snapshot. The model
/// is held only until its reference scores are computed (between days, on
/// the trainer thread), so every served version can be checked after the
/// run without keeping every model resident.
struct Published {
  uint64_t version = 0;
  Clock::time_point at;
  double publish_us = 0.0;
  std::shared_ptr<const core::AtnnModel> model;
  std::shared_ptr<const core::PopularityPredictor> predictor;
  std::vector<double> reference;
};

/// Computes the reference scores of every entry still holding its model,
/// then releases the model.
Status ComputeReferences(const World& world,
                         std::vector<Published>* published) {
  for (Published& entry : *published) {
    if (entry.model == nullptr) continue;
    ATNN_ASSIGN_OR_RETURN(
        entry.reference,
        ReferenceScores(*entry.model, *entry.predictor, *world.item_profiles,
                        world.dataset.new_items));
    entry.model.reset();
    entry.predictor.reset();
  }
  return Status::OK();
}

struct Setup {
  World world;
  std::unique_ptr<runtime::InferenceRuntime> runtime;
  std::vector<Published> published;
  std::unique_ptr<stream::StreamingTrainer> trainer;
  std::unique_ptr<sim::ArrivalStream> arrivals;
  /// The hook's trace context: the span of the Step that is publishing.
  Tracer* tracer = nullptr;
  Tracer::Buffer* buffer = nullptr;
  uint16_t span_publish = 0;
  uint64_t step_span = 0;
  uint64_t day = 0;
};

StatusOr<uint64_t> PublishHook(Setup* setup, runtime::ServingSnapshot fresh) {
  Published entry;
  entry.model = fresh.model;
  entry.predictor = fresh.predictor;
  const auto start = Clock::now();
  StatusOr<uint64_t> version = setup->runtime->Publish(std::move(fresh));
  const auto end = Clock::now();
  setup->tracer->Record(setup->buffer, setup->span_publish, setup->day,
                        setup->step_span, start, end);
  if (version.ok()) {
    entry.version = version.value();
    entry.at = end;
    entry.publish_us =
        std::chrono::duration<double, std::micro>(end - start).count();
    setup->published.push_back(std::move(entry));
  }
  return version;
}

/// The arrival stream and the training shuffle belong to the fixed world:
/// training cost depends on the data (subnormal values and sparse
/// activations change kernel speed), so a seed-dependent stream would make
/// seeds differ in how much work a day takes, not only in what traffic it
/// sees.
std::unique_ptr<Setup> SetUp(Tracer* tracer, Report* report) {
  auto setup = std::make_unique<Setup>();
  setup->tracer = tracer;
  setup->buffer = tracer->NewBuffer();
  setup->span_publish = tracer->Intern("runtime.Publish");
  setup->world = BuildWorld(WorldSpec{});
  const World& world = setup->world;
  setup->runtime = std::make_unique<runtime::InferenceRuntime>(ServingConfig());
  // The set-up publish goes through the same hook as the trainer's.
  if (!PublishHook(setup.get(),
                   SnapshotOf(world, world.model, world.predictor))
           .ok()) {
    report->Fail("initial publish rejected");
    return setup;
  }

  stream::StreamingTrainerConfig config;
  config.model = world.model->config();
  config.train.epochs = 1;
  config.train.batch_size = 256;
  config.train.learning_rate = 2e-3f;
  config.train.seed = 99;
  config.active_user_group = WorldSpec{}.active_users;
  config.tag = "perfbench-stream";
  Setup* raw = setup.get();
  setup->trainer = std::make_unique<stream::StreamingTrainer>(
      world.dataset, config, [raw](runtime::ServingSnapshot fresh) {
        return PublishHook(raw, std::move(fresh));
      });
  const Status warm = setup->trainer->WarmStartFrom(*world.model);
  if (!warm.ok()) report->Fail("warm start failed: " + warm.ToString());
  sim::ArrivalStreamConfig arrivals;
  arrivals.num_days = kDaysPerStream;
  arrivals.feedback_per_item = kFeedbackPerItem;
  arrivals.seed = 2026;
  setup->arrivals = std::make_unique<sim::ArrivalStream>(&world.dataset,
                                                         arrivals);

  std::vector<std::future<StatusOr<runtime::ScoreResult>>> cache_warm;
  for (const int64_t row : world.dataset.new_items) {
    cache_warm.push_back(setup->runtime->ScoreAsync(row));
  }
  setup->runtime->FlushHint();
  for (auto& future : cache_warm) {
    if (!future.get().ok()) report->Fail("cache warm-up request failed");
  }
  return setup;
}

}  // namespace

void RunStreamPublish(const RunOptions& options, Tracer* tracer,
                      Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    setup_s.push_back(
        SecondsAtReferenceSpeed([&] { setup = SetUp(tracer, report); }));
  }
  if (!report->correct) return;
  const World& world = setup->world;
  runtime::InferenceRuntime& runtime = *setup->runtime;
  stream::StreamingTrainer& trainer = *setup->trainer;

  Rng rng(HashCombine(options.seed, 0x73747265616dULL));
  std::vector<int64_t> hot_rows = world.dataset.new_items;
  for (size_t i = hot_rows.size(); i > 1; --i) {
    std::swap(hot_rows[i - 1], hot_rows[rng.UniformInt(i)]);
  }
  const Schedule schedule = PoissonZipfSchedule(
      &rng, kOfferedRps, options.seconds, hot_rows, kZipfAlpha);

  const uint16_t span_day = tracer->Intern("day");
  const uint16_t span_step = tracer->Intern("stream.Step");

  const int64_t locks_before = runtime.metrics_registry().mutex_acquisitions();
  OpenLoop::Config config;
  config.runtime = &runtime;
  config.tracer = tracer;
  OpenLoop loop(config, &schedule);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  loop.Start(start);
  std::vector<stream::DayReport> days;
  std::vector<double> step_ms;
  std::vector<double> day_scale;
  {
    // The trainer moves to the next CPU every day, so a run samples every
    // vCPU's speed rather than the luck of one, and each day's reference
    // time is taken on the CPU that day ran on.
    CpuPlacement placement;
    while (std::chrono::duration<double>(Clock::now() - start).count() <
           options.seconds) {
      if (setup->arrivals->Done()) setup->arrivals->Reset();
      setup->day = days.size();
      placement.PinCaller(setup->day);
      const double reference_before = ComputeReferenceUs();
      ScopedSpan day_span(tracer, setup->buffer, span_day, setup->day, 0);
      const auto step_start = Clock::now();
      StatusOr<stream::DayReport> day = [&] {
        ScopedSpan step_span(tracer, setup->buffer, span_step, setup->day,
                             day_span.id());
        setup->step_span = step_span.id();
        return trainer.Step(setup->arrivals.get());
      }();
      step_ms.push_back(Millis(Clock::now() - step_start).count());
      day_scale.push_back(ReferenceScale(kNominalComputeUs, reference_before,
                                         ComputeReferenceUs()));
      if (!day.ok()) {
        report->Fail("stream step failed: " + day.status().ToString());
        break;
      }
      days.push_back(std::move(day).value());
      const Status checked = ComputeReferences(world, &setup->published);
      if (!checked.ok()) {
        report->Fail("reference scoring failed: " + checked.ToString());
        break;
      }
    }
  }
  loop.Join();
  const int64_t mutex_locks =
      runtime.metrics_registry().mutex_acquisitions() - locks_before;

  // Every day must publish, with strictly increasing versions.
  uint64_t last_version = setup->published.front().version;
  for (const stream::DayReport& day : days) {
    if (!day.published) {
      report->Fail("day " + std::to_string(day.day) + " did not publish");
    } else if (day.published_version <= last_version) {
      report->Fail("published versions not monotonic");
    }
    last_version = day.published_version;
  }
  if (days.empty()) report->Fail("no stream day completed");

  // Every fresh answer must be its version's reference score.
  std::map<uint64_t, const std::vector<double>*> reference;
  for (const Published& entry : setup->published) {
    reference[entry.version] = &entry.reference;
  }
  const auto correct = [&](const Outcome& outcome) {
    const auto it = reference.find(outcome.version);
    return it != reference.end() && !it->second->empty() &&
           SameBits(outcome.score,
                    (*it->second)[static_cast<size_t>(outcome.row)]);
  };
  Tally tally = TallyOutcomes(loop.outcomes(), kSloP99Us, correct);
  report->attempted = tally.attempted;
  report->failed = tally.failed();
  if (tally.wrong > 0) {
    report->Fail(std::to_string(tally.wrong) +
                 " fresh score(s) differ from their version's "
                 "core::ScoreItemsWithPlan");
  }
  if (tally.errors > 0) {
    report->Fail(std::to_string(tally.errors) + " request(s) errored");
  }

  std::vector<double> window_us;
  for (size_t i = 0; i < loop.outcomes().size(); ++i) {
    const Clock::time_point due = loop.outcomes()[i].due;
    for (const Published& entry : setup->published) {
      if (due >= entry.at - kWindowBefore && due <= entry.at + kWindowAfter) {
        window_us.push_back(tally.latency_us[i]);
        break;
      }
    }
  }
  const int64_t backlog_end = BacklogAt(
      loop.outcomes(),
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds)));
  const double p90_us = WindowedQuantile(tally.latency_us, 0.9);
  const double p99_us = WindowedQuantile(tally.latency_us, 0.99);
  const Summary request = Summarize(&tally.latency_us);
  const Summary late = Summarize(&tally.late_us);
  const Summary window = Summarize(&window_us);

  std::vector<double> day_rows_per_s;
  double auc_sum = 0.0;
  int auc_days = 0;
  std::vector<double> publish_ms;
  std::vector<double> publish_ref_ms;
  std::vector<double> train_ms;
  std::vector<double> eval_ms;
  for (size_t d = 0; d < days.size(); ++d) {
    day_rows_per_s.push_back(
        static_cast<double>(days[d].train_indices.size()) /
        std::max(days[d].train_ms * 1e-3, 1e-9));
    publish_ms.push_back(days[d].publish_ms);
    publish_ref_ms.push_back(days[d].publish_ms * day_scale[d]);
    train_ms.push_back(days[d].train_ms);
    eval_ms.push_back(step_ms[d] - days[d].train_ms - days[d].publish_ms);
    if (days[d].auc_valid) {
      auc_sum += days[d].fresh_auc;
      ++auc_days;
    }
  }
  std::vector<double> runtime_publish_us;
  for (size_t i = 1; i < setup->published.size(); ++i) {
    runtime_publish_us.push_back(setup->published[i].publish_us);
  }
  // Median over days: a host hiccup during one day's training moves one
  // sample, not the reported rate.
  const double train_rows_per_s = Median(&day_rows_per_s);
  std::printf("stream: %zu day(s) published, %s; publish-window %s\n",
              days.size(), FormatSummary(request, "us").c_str(),
              FormatSummary(window, "us").c_str());

  report->EndToEnd("setup_s", Median(&setup_s), "s");
  // Rows served fresh and in time per scheduled second while the trainer
  // runs. Training speed itself (train_rows_per_s) is printed, not bounded:
  // every bounded metric must mean something on every workload.
  report->EndToEnd("rows_per_s",
                   static_cast<double>(tally.fresh_in_slo) / options.seconds,
                   "1/s");
  // A day's publish at reference speed (speed.h), median over days.
  report->EndToEnd("publish_ms", Median(&publish_ref_ms), "ms");
  report->EndToEnd("fresh_frac",
                   static_cast<double>(tally.fresh_in_slo) /
                       static_cast<double>(std::max<int64_t>(1,
                                                             tally.attempted)),
                   "ratio");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  report->Detail("req_p50_us", request.p50, "us");
  report->Detail("req_p90_us", p90_us, "us");
  report->Detail("req_p99_us", p99_us, "us");
  report->Detail("train_rows_per_s", train_rows_per_s, "1/s");
  report->Detail("day_cycle_s", Median(&step_ms) * 1e-3, "s");
  report->Detail("fresh_auc", auc_days > 0 ? auc_sum / auc_days : 0.0,
                 "auc");
  report->Detail("days", static_cast<double>(days.size()), "count");
  report->Detail("req_samples", static_cast<double>(request.count), "count");
  report->Detail("req_p99_publish_window_us", window.p99, "us");
  report->Detail("fail_frac",
                 static_cast<double>(report->failed) /
                     static_cast<double>(std::max<int64_t>(1,
                                                           report->attempted)),
                 "ratio");
  report->Detail("gen.late_p99_us", late.p99, "us");
  report->Detail("gen.backlog_end", static_cast<double>(backlog_end),
                 "count");
  report->Detail("runtime.publish_us", Median(&runtime_publish_us), "us");
  report->Detail("stream.train_ms", Median(&train_ms), "ms");
  report->Detail("stream.eval_ms", Median(&eval_ms), "ms");
  report->Detail("stream.publish_ms", Median(&publish_ms), "ms");
  report->Detail("host.reference_scale", Median(&day_scale), "ratio");

  RuntimeTotals totals;
  totals.Add(runtime.stats());
  ReportRuntimeLayer(totals, mutex_locks, report);
  if (!options.trace) return;
  ProbeInputs probes;
  probes.world = &world;
  probes.model = &trainer.model();
  const core::PopularityPredictor predictor = core::PopularityPredictor::Build(
      trainer.model(), world.dataset, world.user_group);
  probes.predictor = &predictor;
  probes.rows = schedule.rows;
  probes.batch_rows_mean = totals.batch_size.Mean();
  probes.train_registry = &trainer.metrics_registry();
  probes.seed = options.seed;
  RunProbes(probes, tracer, report);
}

}  // namespace atnn::perfbench
