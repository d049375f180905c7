// Serving-runtime throughput: the cost model behind the paper's O(1)
// popularity path at production traffic. Compares
//   (a) the sequential reference — one item per generator forward, the
//       loop tools/atnn_score.cc and the old online_serving example ran —
// against
//   (b) runtime/InferenceRuntime micro-batching on 1/2/4 workers with the
//       per-snapshot score cache disabled (pure batching gain),
//   (c) the runtime in its default configuration (batching + score cache)
//       on 1/2/4 workers, and
//   (d) the default configuration under hot-swap churn (a new snapshot
//       published every 100ms while the request stream is in flight, each
//       publish invalidating the score cache).
//
// On multi-core hosts the worker sweep additionally shows forward passes
// scaling across cores; on a single-core host the 1/2/4-worker rows are
// expected to tie.
//
// Weights are left at their seeded initialization: throughput depends on
// tower shapes and batch composition, not on what the weights converged
// to, and skipping training keeps the bench runnable in seconds.
//
//   $ ./build/bench/bench_runtime_throughput
//
// --chaos switches to the fault-tolerance protocol (DESIGN.md §7): a
// fault-free baseline run followed by the same stream under injected
// worker delays, batch failures, queue rejections, and corrupt snapshot
// publishes. Gate: the p99 of fresh (non-degraded) responses within 2x
// the fault-free baseline, with zero crashed requests in both passes as
// its precondition.
//
// The correctness half of both protocols is InferenceRuntimeTest: churn
// that drops nothing, injected faults that degrade every response
// cleanly and tier-tagged, corrupt publishes rejected while valid ones
// land, and no metrics-registry mutex acquisition on the score path.

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/popularity.h"
#include "perf_common.h"
#include "runtime/inference_runtime.h"
#include "serving/popularity_index.h"

namespace atnn::bench {
namespace {

constexpr int kRequests = 8000;
/// The churn run replays a longer stream so it stays under load across
/// several 100ms publish ticks instead of finishing between two of them.
constexpr int kChurnRequests = 600000;
constexpr size_t kMaxBatch = 64;

/// Zipf-skewed request stream over the new arrivals — the head-heavy item
/// popularity every e-commerce request log shows.
std::vector<int64_t> MakeRequestStream(const data::TmallDataset& dataset,
                                       int count) {
  Rng rng(4242);
  std::vector<int64_t> stream;
  stream.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    stream.push_back(
        dataset.new_items[rng.Zipf(dataset.new_items.size(), 1.1)]);
  }
  return stream;
}

double RunSequential(const core::AtnnModel& model,
                     const data::TmallDataset& dataset,
                     const core::PopularityPredictor& predictor,
                     const std::vector<int64_t>& stream) {
  Stopwatch timer;
  double checksum = 0.0;
  for (int64_t item : stream) {
    checksum += predictor
                    .ScoreItems(model, dataset, {item}, /*batch_size=*/1)
                    .front();
  }
  const double seconds = timer.ElapsedSeconds();
  std::printf("sequential checksum %.3f\n", checksum);
  return seconds;
}

struct RuntimeRunResult {
  double seconds = 0.0;
  double mean_batch = 0.0;
  int64_t cache_hits = 0;
  int64_t swaps = 0;
  int64_t errors = 0;
};

RuntimeRunResult RunRuntime(const core::AtnnModel& model,
                            const data::TmallDataset& dataset,
                            const core::PopularityPredictor& predictor,
                            const std::vector<int64_t>& stream,
                            size_t num_workers, bool enable_cache,
                            int swap_every_ms) {
  runtime::RuntimeConfig config;
  config.num_workers = num_workers;
  config.enable_score_cache = enable_cache;
  config.batcher.max_batch_size = kMaxBatch;
  config.batcher.max_delay_us = 1000;
  config.batcher.queue_capacity = 8192;
  config.batcher.admission = runtime::AdmissionPolicy::kBlock;
  runtime::InferenceRuntime runtime(config);

  runtime::ServingSnapshot snapshot;
  snapshot.model = runtime::Unowned(&model);
  snapshot.predictor = runtime::Unowned(&predictor);
  snapshot.item_profiles = runtime::Unowned(&dataset.item_profiles);
  runtime.Publish(snapshot);

  std::atomic<bool> stop_swapping{false};
  std::thread swapper;
  if (swap_every_ms > 0) {
    swapper = std::thread([&] {
      while (!stop_swapping.load()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(swap_every_ms));
        runtime.Publish(snapshot);  // same content; full swap machinery
      }
    });
  }

  Stopwatch timer;
  std::vector<std::future<StatusOr<runtime::ScoreResult>>> futures;
  futures.reserve(stream.size());
  for (int64_t item : stream) futures.push_back(runtime.ScoreAsync(item));
  RuntimeRunResult result;
  for (auto& future : futures) {
    if (!future.get().ok()) ++result.errors;
  }
  result.seconds = timer.ElapsedSeconds();

  if (swapper.joinable()) {
    stop_swapping.store(true);
    swapper.join();
  }
  runtime.Shutdown();
  const auto stats = runtime.stats();
  result.mean_batch = stats.batch_size.Mean();
  result.cache_hits = stats.cache_hits;
  result.swaps = stats.swaps;
  if (swap_every_ms > 0) {
    std::printf("\n%s\n",
                runtime::RuntimeStats::ToTable(
                    stats, "runtime stats (hot-swap churn run)")
                    .c_str());
  }
  return result;
}

/// One pass of the chaos protocol. `inject` turns the fault harness on;
/// the baseline pass runs the identical configuration with it off so the
/// two fresh-tier latency distributions are comparable.
struct ChaosRunOutcome {
  runtime::StatsSnapshot stats;
  int64_t crashed = 0;  // futures that resolved with an error
};

ChaosRunOutcome RunChaosPass(const core::AtnnModel& model,
                             const data::TmallDataset& dataset,
                             const core::PopularityPredictor& predictor,
                             const std::vector<int64_t>& stream,
                             std::shared_ptr<const serving::PopularityIndex>
                                 prior,
                             bool inject) {
  runtime::RuntimeConfig config;
  config.num_workers = 4;
  config.batcher.max_batch_size = kMaxBatch;
  config.batcher.max_delay_us = 1000;
  config.batcher.queue_capacity = 8192;
  config.batcher.admission = runtime::AdmissionPolicy::kBlock;
  config.default_deadline_us = 50000;  // 50ms per-request budget
  config.prior = std::move(prior);
  if (inject) {
    config.fault_injection.enabled = true;
    config.fault_injection.seed = 20240304;
    config.fault_injection.worker_delay_probability = 0.05;
    config.fault_injection.worker_delay_us = 2000;
    config.fault_injection.batch_failure_probability = 0.02;
    config.fault_injection.enqueue_reject_probability = 0.02;
  }
  runtime::InferenceRuntime runtime(config);

  runtime::ServingSnapshot snapshot;
  snapshot.model = runtime::Unowned(&model);
  snapshot.predictor = runtime::Unowned(&predictor);
  snapshot.item_profiles = runtime::Unowned(&dataset.item_profiles);
  ChaosRunOutcome outcome;
  if (!runtime.Publish(snapshot).ok()) {
    std::printf("FATAL: initial publish rejected\n");
    outcome.crashed = static_cast<int64_t>(stream.size());
    return outcome;
  }

  // The publisher thread keeps hot-swapping under load; in the injected
  // pass every other publish is armed to be corrupted in flight, which
  // validation must reject without interrupting service.
  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    bool corrupt_next = inject;
    while (!stop_swapping.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (corrupt_next) runtime.fault_injector().ArmCorruptPublish();
      runtime.Publish(snapshot);
      if (inject) corrupt_next = !corrupt_next;
    }
  });

  std::vector<std::future<StatusOr<runtime::ScoreResult>>> futures;
  futures.reserve(stream.size());
  for (int64_t item : stream) futures.push_back(runtime.ScoreAsync(item));
  for (auto& future : futures) {
    if (!future.get().ok()) ++outcome.crashed;
  }

  stop_swapping.store(true);
  swapper.join();
  runtime.Shutdown();
  outcome.stats = runtime.stats();
  return outcome;
}

/// The seeded world, untrained model and predictor both protocols serve.
struct BenchWorld {
  data::TmallDataset dataset;
  std::unique_ptr<core::AtnnModel> model;
  std::unique_ptr<core::PopularityPredictor> predictor;
};

BenchWorld BuildWorld() {
  data::TmallConfig world = PaperScaleTmallConfig();
  world.num_users = 1000;
  world.num_items = 2000;
  world.num_new_items = 600;
  world.num_interactions = 50000;
  BenchWorld built{data::GenerateTmallDataset(world), nullptr, nullptr};
  core::NormalizeTmallInPlace(&built.dataset);

  core::AtnnConfig config;
  config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 7;
  built.model = std::make_unique<core::AtnnModel>(
      *built.dataset.user_schema, *built.dataset.item_profile_schema,
      *built.dataset.item_stats_schema, config);
  built.predictor = std::make_unique<core::PopularityPredictor>(
      core::PopularityPredictor::Build(
          *built.model, built.dataset,
          core::SelectActiveUsers(built.dataset, 300)));
  return built;
}

int RunChaos() {
  const BenchWorld world = BuildWorld();
  const data::TmallDataset& dataset = world.dataset;
  const core::AtnnModel& model = *world.model;
  const core::PopularityPredictor& predictor = *world.predictor;
  const auto stream = MakeRequestStream(dataset, 100000);

  // Tier-2 prior: "yesterday's" precomputed scores for every new arrival —
  // exactly what a production popularity index would hold.
  const auto prior_scores =
      predictor.ScoreItems(model, dataset, dataset.new_items);
  auto prior = std::make_shared<serving::PopularityIndex>();
  prior->BulkLoad(dataset.new_items, prior_scores);

  std::printf("chaos protocol: %zu requests\n\n", stream.size());
  const auto baseline = RunChaosPass(model, dataset, predictor, stream,
                                     prior, /*inject=*/false);
  const auto chaos = RunChaosPass(model, dataset, predictor, stream, prior,
                                  /*inject=*/true);

  std::printf("%s\n",
              runtime::RuntimeStats::ToTable(baseline.stats,
                                             "fault-free baseline")
                  .c_str());
  std::printf("\n%s\n",
              runtime::RuntimeStats::ToTable(chaos.stats, "chaos run")
                  .c_str());

  const double baseline_p99 = baseline.stats.fresh_latency_us.Percentile(0.99);
  const double chaos_p99 = chaos.stats.fresh_latency_us.Percentile(0.99);
  std::printf("\nfresh-tier p99: baseline %.0fus, chaos %.0fus (%.2fx)\n",
              baseline_p99, chaos_p99,
              baseline_p99 > 0.0 ? chaos_p99 / baseline_p99 : 0.0);

  Gates gates;
  gates.Check(baseline.crashed == 0 && chaos.crashed == 0,
              "zero crashed requests in both passes");
  gates.Check(chaos_p99 <= 2.0 * baseline_p99,
              "fresh-tier p99 within 2x of fault-free baseline");
  return gates.exit_code();
}

int Run() {
  const BenchWorld world = BuildWorld();
  const data::TmallDataset& dataset = world.dataset;
  const core::AtnnModel& model = *world.model;
  const core::PopularityPredictor& predictor = *world.predictor;
  const auto stream = MakeRequestStream(dataset, kRequests);
  const auto churn_stream = MakeRequestStream(dataset, kChurnRequests);

  TablePrinter table("runtime throughput — " + std::to_string(kRequests) +
                     " requests, max batch " + std::to_string(kMaxBatch));
  table.SetHeader({"mode", "workers", "wall_s", "req/s", "speedup",
                   "mean_batch", "cache_hits", "swaps", "errors"});

  const double seq_seconds = RunSequential(model, dataset, predictor, stream);
  const double seq_rps = static_cast<double>(kRequests) / seq_seconds;
  table.AddRow({"sequential", "1", TablePrinter::Num(seq_seconds, 2),
                TablePrinter::Num(seq_rps, 0), "1.00", "1", "0", "0", "0"});

  const auto add_row = [&](const std::string& mode, size_t workers,
                           int num_requests, const RuntimeRunResult& run) {
    const double rps = static_cast<double>(num_requests) / run.seconds;
    table.AddRow({mode, std::to_string(workers),
                  TablePrinter::Num(run.seconds, 2),
                  TablePrinter::Num(rps, 0),
                  TablePrinter::Num(rps / seq_rps, 2),
                  TablePrinter::Num(run.mean_batch, 1),
                  std::to_string(run.cache_hits),
                  std::to_string(run.swaps), std::to_string(run.errors)});
  };

  for (size_t workers : {1u, 2u, 4u}) {
    add_row("batched, no cache", workers, kRequests,
            RunRuntime(model, dataset, predictor, stream, workers,
                       /*enable_cache=*/false, /*swap_every_ms=*/0));
  }
  for (size_t workers : {1u, 2u, 4u}) {
    add_row("batched+cache", workers, kRequests,
            RunRuntime(model, dataset, predictor, stream, workers,
                       /*enable_cache=*/true, /*swap_every_ms=*/0));
  }
  add_row("batched+cache+churn", 4, kChurnRequests,
          RunRuntime(model, dataset, predictor, churn_stream, 4,
                     /*enable_cache=*/true, /*swap_every_ms=*/100));
  table.Print();
  return 0;
}

}  // namespace
}  // namespace atnn::bench

int main(int argc, char** argv) {
  atnn::FlagParser flags("Serving-runtime throughput and chaos benchmark");
  flags.AddBool("chaos", false,
                "run the fault-tolerance protocol instead of the "
                "throughput sweep");
  const atnn::Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  return flags.GetBool("chaos") ? atnn::bench::RunChaos()
                                : atnn::bench::Run();
}
