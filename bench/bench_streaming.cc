// Streaming train-to-serve loop (DESIGN.md §17): replays live traffic
// against an InferenceRuntime while a StreamingTrainer consumes the
// market's daily arrival stream, incrementally trains on each cohort's
// feedback, and hot-swaps a fresh snapshot into the same runtime after
// every simulated day. Measures the two costs the loop exists to bound:
//
//   staleness — per day, AUC of the currently-served weights on the
//   newest cohort's feedback vs AUC of the weights freshly trained on it
//   (fresh - served is the price of serving yesterday's model), and
//
//   publish glitch — p99 of fresh-tier request latency inside a window
//   around each hot-swap vs the steady-state p99 far from any publish
//   (RCU swap + eager cache rotation should make publishes nearly free).
//
// Gates: zero errored requests while training and publishing run
// concurrently with the replay (the precondition of the two below);
// fresh AUC >= served AUC on every valid day; publish-window fresh p99
// <= 1.5x steady-state p99.
//
// That every day publishes with monotonic versions and finite losses,
// with the streaming switches off and on, and that day 0 with the
// switches off replays the batch trainer bitwise, are StreamingTrainerTest
// cases.
//
//   $ ./build/bench/bench_streaming

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "core/popularity.h"
#include "perf_common.h"
#include "runtime/inference_runtime.h"
#include "serving/popularity_index.h"
#include "sim/arrival_stream.h"
#include "stream/streaming_trainer.h"

namespace atnn::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Sample {
  Clock::time_point done;
  double latency_us = 0.0;
  runtime::ServingTier tier = runtime::ServingTier::kFresh;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1,
      static_cast<size_t>(p * static_cast<double>(values.size())));
  return values[index];
}

struct StreamWorld {
  data::TmallDataset dataset;
  core::AtnnConfig config;
  core::TrainOptions train;
  sim::ArrivalStreamConfig arrivals;
};

StreamWorld MakeWorld() {
  StreamWorld world;
  data::TmallConfig tmall = PaperScaleTmallConfig();
  tmall.num_users = 1000;
  tmall.num_items = 2000;
  tmall.num_new_items = 600;
  tmall.num_interactions = 50000;
  world.dataset = data::GenerateTmallDataset(tmall);
  core::NormalizeTmallInPlace(&world.dataset);

  world.config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  world.config.seed = 7;

  world.train = BenchTrainOptions();
  world.train.epochs = 1;  // per-day incremental pass

  world.arrivals.num_days = 6;
  world.arrivals.feedback_per_item = 40;
  world.arrivals.seed = tmall.seed ^ 0xa55a7e11ULL;
  return world;
}

/// The live measurement run: concurrent replay + streaming publishes.
struct LiveRunResult {
  std::vector<stream::DayReport> reports;
  std::vector<Clock::time_point> publish_times;
  std::vector<Sample> samples;
  int64_t errors = 0;
  Status stream_status;
};

LiveRunResult RunLive(const StreamWorld& world) {
  LiveRunResult result;

  // Yesterday's model: a short batch pretrain on the historical split is
  // what the streaming loop warm-starts from and the runtime serves first.
  core::AtnnModel pretrained(*world.dataset.user_schema,
                             *world.dataset.item_profile_schema,
                             *world.dataset.item_stats_schema, world.config);
  core::TrainOptions pretrain = world.train;
  pretrain.epochs = 2;
  core::TrainAtnnModel(&pretrained, world.dataset, pretrain);
  const auto group = core::SelectActiveUsers(world.dataset, 300);
  const auto predictor =
      core::PopularityPredictor::Build(pretrained, world.dataset, group);
  auto prior = std::make_shared<serving::PopularityIndex>();
  prior->BulkLoad(world.dataset.new_items,
                  predictor.ScoreItems(pretrained, world.dataset,
                                       world.dataset.new_items));

  runtime::RuntimeConfig runtime_config;
  runtime_config.num_workers = 4;
  runtime_config.batcher.max_batch_size = 64;
  runtime_config.batcher.max_delay_us = 1000;
  runtime_config.batcher.queue_capacity = 8192;
  runtime_config.batcher.admission = runtime::AdmissionPolicy::kBlock;
  runtime_config.prior = prior;
  runtime::InferenceRuntime runtime(runtime_config);

  runtime::ServingSnapshot initial;
  initial.model = runtime::Unowned(&pretrained);
  initial.predictor = runtime::Unowned(&predictor);
  initial.item_profiles = runtime::Unowned(&world.dataset.item_profiles);
  initial.tag = "bench-pretrained";
  ATNN_CHECK(runtime.Publish(initial).ok());

  // The publish hook timestamps every accepted hot-swap so the glitch
  // analysis can carve windows around them.
  std::mutex publish_mutex;
  stream::StreamingTrainerConfig trainer_config;
  trainer_config.model = world.config;
  trainer_config.train = world.train;
  trainer_config.active_user_group = 300;
  trainer_config.tag = "bench-stream";
  stream::StreamingTrainer trainer(
      world.dataset, trainer_config,
      [&](runtime::ServingSnapshot fresh) -> StatusOr<uint64_t> {
        auto published = runtime.Publish(std::move(fresh));
        if (published.ok()) {
          std::lock_guard<std::mutex> lock(publish_mutex);
          result.publish_times.push_back(Clock::now());
        }
        return published;
      });
  ATNN_CHECK(trainer.WarmStartFrom(pretrained).ok());
  sim::ArrivalStream arrivals(&world.dataset, world.arrivals);

  // Replay clients: Zipf-skewed blocking scores until the trainer is done
  // (plus a short steady-state tail after the last publish).
  constexpr size_t kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> errors{0};
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xbe7c11ULL + c);
      auto& samples = per_client[c];
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t item = world.dataset.new_items[rng.Zipf(
            world.dataset.new_items.size(), 1.1)];
        const auto start = Clock::now();
        const auto scored = runtime.Score(item);
        const auto done = Clock::now();
        if (!scored.ok()) {
          errors.fetch_add(1);
          continue;
        }
        samples.push_back(
            {done,
             std::chrono::duration<double, std::micro>(done - start).count(),
             scored.value().tier});
      }
    });
  }

  // The pause between days gives the glitch analysis steady-state samples
  // between publishes (a window with no publish in sight).
  const auto pause = std::chrono::milliseconds(150);
  while (!arrivals.Done()) {
    auto report = trainer.Step(&arrivals);
    if (!report.ok()) {
      result.stream_status = report.status();
      break;
    }
    result.reports.push_back(std::move(*report));
    std::this_thread::sleep_for(pause);
  }
  std::this_thread::sleep_for(pause);  // steady-state tail
  stop.store(true);
  for (auto& client : clients) client.join();
  runtime.Shutdown();

  for (auto& samples : per_client) {
    result.samples.insert(result.samples.end(), samples.begin(),
                          samples.end());
  }
  result.errors = errors.load();
  return result;
}

int Run() {
  const StreamWorld world = MakeWorld();
  std::printf("streaming train-to-serve: %d day(s)\n\n",
              world.arrivals.num_days);

  const LiveRunResult live = RunLive(world);

  TablePrinter table("staleness per streamed day");
  table.SetHeader({"day", "cohort", "feedback", "served_auc", "fresh_auc",
                   "gap", "train_ms", "publish_ms", "version"});
  for (const auto& report : live.reports) {
    table.AddRow({std::to_string(report.day),
                  std::to_string(report.cohort_items),
                  std::to_string(report.feedback_rows),
                  TablePrinter::Num(report.served_auc, 4),
                  TablePrinter::Num(report.fresh_auc, 4),
                  TablePrinter::Num(report.staleness_gap, 4),
                  TablePrinter::Num(report.train_ms, 1),
                  TablePrinter::Num(report.publish_ms, 2),
                  report.published
                      ? std::to_string(report.published_version)
                      : "REJECTED"});
  }
  table.Print();

  // Publish-glitch analysis: fresh-tier latencies inside a window around
  // each accepted publish vs everything else (steady state).
  const auto window_before = std::chrono::milliseconds(50);
  const auto window_after = std::chrono::milliseconds(100);
  std::vector<double> glitch_us;
  std::vector<double> steady_us;
  for (const Sample& sample : live.samples) {
    if (sample.tier != runtime::ServingTier::kFresh) continue;
    bool near_publish = false;
    for (const auto& publish : live.publish_times) {
      if (sample.done >= publish - window_before &&
          sample.done <= publish + window_after) {
        near_publish = true;
        break;
      }
    }
    (near_publish ? glitch_us : steady_us).push_back(sample.latency_us);
  }
  const double glitch_p99 = Percentile(glitch_us, 0.99);
  const double steady_p99 = Percentile(steady_us, 0.99);
  std::printf(
      "\nreplay: %zu answered (%lld errors), %zu publish(es)\n"
      "fresh p99: %.0fus in publish windows (%zu samples), %.0fus steady "
      "state (%zu samples), ratio %.2fx\n",
      live.samples.size(), static_cast<long long>(live.errors),
      live.publish_times.size(), glitch_p99, glitch_us.size(), steady_p99,
      steady_us.size(), steady_p99 > 0.0 ? glitch_p99 / steady_p99 : 0.0);

  std::printf("\n");
  Gates gates;
  gates.Check(live.stream_status.ok() && live.errors == 0 &&
                  live.reports.size() ==
                      static_cast<size_t>(world.arrivals.num_days),
              "zero errors with training/publishing concurrent to the "
              "replay");
  bool staleness_ok = true;
  int valid_days = 0;
  for (const auto& report : live.reports) {
    if (!report.auc_valid) continue;
    ++valid_days;
    staleness_ok = staleness_ok && report.fresh_auc >= report.served_auc;
  }
  gates.Check(valid_days > 0 && staleness_ok,
              "fresh AUC >= served AUC on every valid day (the publish "
              "closes a real staleness gap)");
  const bool glitch_measurable =
      glitch_us.size() >= 50 && steady_us.size() >= 50;
  gates.Check(glitch_measurable && glitch_p99 <= 1.5 * steady_p99,
              "publish-window fresh p99 <= 1.5x steady state");
  return gates.exit_code();
}

}  // namespace
}  // namespace atnn::bench

int main() { return atnn::bench::Run(); }
