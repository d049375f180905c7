// Low-precision inference bench: what the int8/bf16 serving path
// (DESIGN.md §15) costs in quality and tail latency.
//
//   (a) QUALITY — the generator-path (cold-start) test AUC through the
//       int8 and bf16 artifacts must sit within 0.001 of the fp32 model
//       on the seeded eval set.
//   (b) SERVING — a quantized snapshot (model dropped, quantized set)
//       served through the sharded runtime answers a distinct-user Zipf
//       replay with zero errors (the precondition of the timing), and its
//       worst per-shard fresh-tier p99 stays within 1.5x of the fp32
//       snapshot on the same stream.
//
// Artifact sizes are reported here and gated by
// QuantizedGeneratorTest.CompressionRatioHolds; the int8 plan's
// AVX2-vs-scalar equality, the save/load round trip and the rejection of
// poisoned scales are tests too (DiffHarnessTest,
// QuantizedGeneratorTest), as is sharded serving of every precision
// (CompiledServingTest).
//
// Emits BENCH_quantized.json for dashboards.
//
//   $ ./build/bench/bench_quantized

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/sharded_runtime.h"
#include "common/table_printer.h"
#include "core/popularity.h"
#include "metrics/metrics.h"
#include "nn/autograd.h"
#include "perf_common.h"
#include "quant/quantized_generator.h"
#include "runtime/snapshot_handle.h"
#include "serving/popularity_index.h"

namespace atnn::bench {
namespace {

constexpr int64_t kChunk = 1024;

/// The artifact lowered into the plan serving runs over `items`, at the
/// chunk size.
std::shared_ptr<const nn::ir::CompiledPlan> Lower(
    const quant::QuantizedGenerator& quantized,
    const data::EntityTable& items) {
  auto plan = quant::CompileQuantizedPlan(quantized, items, kChunk);
  ATNN_CHECK(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

/// Generator vectors of one block (at most kChunk rows) through `plan`.
std::vector<float> PlanVectors(const nn::ir::CompiledPlan& plan,
                               const data::BlockBatch& block) {
  nn::ir::PlanScratch scratch;
  const auto out = plan.Execute({&block.categorical, &block.numeric},
                                block.rows(), &scratch);
  ATNN_CHECK(out.ok()) << out.status().ToString();
  return std::vector<float>(*out, *out + block.rows() * plan.output_cols());
}

/// Generator-path CTR AUC with the item side routed through the lowered
/// quantized artifact; the user tower stays fp32 (it is not part of the
/// artifact — in production the user vector arrives from the user-side
/// service).
double QuantizedGeneratorAuc(const core::AtnnModel& model,
                             const nn::ir::CompiledPlan& plan,
                             const data::TmallDataset& dataset,
                             const std::vector<int64_t>& indices) {
  const float bias = model.generator_bias_value();
  const int64_t cols = plan.output_cols();
  const std::vector<double> logits = core::ScoreChunks(
      indices, kChunk, [&](std::span<const int64_t> chunk) {
        const data::CtrBatch batch = data::MakeCtrBatch(dataset, chunk);
        const nn::Var user_vec = model.UserVector(batch.user);
        const std::vector<float> gen_vec =
            PlanVectors(plan, batch.item_profile);
        std::vector<double> chunk_logits;
        for (int64_t r = 0; r < user_vec.rows(); ++r) {
          const float* g = gen_vec.data() + r * cols;
          const float* u = user_vec.value().row_ptr(r);
          double logit = bias;
          for (int64_t c = 0; c < cols; ++c) logit += g[c] * u[c];
          chunk_logits.push_back(logit);
        }
        return chunk_logits;
      });
  return metrics::Auc(logits, core::GatherLabels(dataset, indices));
}

cluster::ShardedRuntimeConfig ServingConfig(
    std::shared_ptr<const serving::PopularityIndex> prior) {
  cluster::ShardedRuntimeConfig config;
  config.num_shards = 2;
  config.shard.num_workers = 4;
  config.shard.batcher.max_batch_size = 64;
  config.shard.batcher.max_delay_us = 100;
  config.shard.batcher.queue_capacity = 8192;
  config.shard.batcher.admission = runtime::AdmissionPolicy::kBlock;
  config.prior = std::move(prior);
  return config;
}

int Run() {
  JsonWriter json;
  Gates gates;
  std::printf("quantized bench\n\n");

  // --- world + trained model ---
  data::TmallConfig world = PaperScaleTmallConfig();
  world.num_users = 1000;
  world.num_items = 2000;
  world.num_new_items = 600;
  world.num_interactions = 50000;
  data::TmallDataset dataset = data::GenerateTmallDataset(world);
  core::NormalizeTmallInPlace(&dataset);

  core::AtnnConfig model_config;
  model_config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  model_config.seed = 7;
  core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                        *dataset.item_stats_schema, model_config);
  core::TrainOptions options = BenchTrainOptions();
  options.epochs = 2;
  core::TrainAtnnModel(&model, dataset, options);

  // --- both artifacts, calibrated on the cold-start arrivals ---
  const data::BlockBatch calibration =
      data::GatherBlock(dataset.item_profiles, dataset.new_items);
  auto int8_or = quant::QuantizedGenerator::Build(
      model, calibration, quant::Precision::kInt8);
  auto bf16_or = quant::QuantizedGenerator::Build(
      model, calibration, quant::Precision::kBf16);
  if (!int8_or.ok() || !bf16_or.ok()) {
    std::fprintf(stderr, "FATAL: quantization failed: %s / %s\n",
                 int8_or.status().ToString().c_str(),
                 bf16_or.status().ToString().c_str());
    return 1;
  }
  const quant::QuantizedGenerator& int8 = *int8_or;
  const quant::QuantizedGenerator& bf16 = *bf16_or;

  const double int8_ratio =
      static_cast<double>(int8.QuantizedByteSize()) /
      static_cast<double>(int8.Fp32ByteSize());
  const double bf16_ratio =
      static_cast<double>(bf16.QuantizedByteSize()) /
      static_cast<double>(bf16.Fp32ByteSize());
  std::printf("artifact bytes: int8 %lld (%.3fx of fp32), bf16 %lld "
              "(%.3fx of fp32)\n",
              static_cast<long long>(int8.QuantizedByteSize()), int8_ratio,
              static_cast<long long>(bf16.QuantizedByteSize()), bf16_ratio);
  json.Add("int8_byte_ratio", int8_ratio);
  json.Add("bf16_byte_ratio", bf16_ratio);

  // --- (a) cold-start AUC ---
  const double auc_fp32 = core::EvaluateAtnnAuc(
      model, dataset, dataset.test_indices, core::CtrPath::kGenerator);
  const double auc_int8 =
      QuantizedGeneratorAuc(model, *Lower(int8, dataset.item_profiles),
                            dataset, dataset.test_indices);
  const double auc_bf16 =
      QuantizedGeneratorAuc(model, *Lower(bf16, dataset.item_profiles),
                            dataset, dataset.test_indices);
  std::printf("cold-start AUC: fp32 %.5f | int8 %.5f (delta %+.5f) | "
              "bf16 %.5f (delta %+.5f)\n",
              auc_fp32, auc_int8, auc_int8 - auc_fp32, auc_bf16,
              auc_bf16 - auc_fp32);
  json.Add("auc_fp32", auc_fp32);
  json.Add("auc_int8", auc_int8);
  json.Add("auc_bf16", auc_bf16);
  gates.Check(std::abs(auc_int8 - auc_fp32) < 0.001,
              "int8 cold-start AUC within 0.001 of fp32");
  gates.Check(std::abs(auc_bf16 - auc_fp32) < 0.001,
              "bf16 cold-start AUC within 0.001 of fp32");

  // --- (b) sharded replay: fp32 baseline, then the quantized snapshot ---
  const auto group = core::SelectActiveUsers(dataset, 300);
  const auto predictor =
      core::PopularityPredictor::Build(model, dataset, group);
  auto prior = std::make_shared<serving::PopularityIndex>();
  prior->BulkLoad(dataset.new_items,
                  predictor.ScoreItems(model, dataset, dataset.new_items));

  runtime::ServingSnapshot fp32_snapshot;
  fp32_snapshot.model = runtime::Unowned(&model);
  fp32_snapshot.predictor = runtime::Unowned(&predictor);
  fp32_snapshot.item_profiles = runtime::Unowned(&dataset.item_profiles);
  fp32_snapshot.tag = "bench-quant-fp32";

  runtime::ServingSnapshot int8_snapshot;
  int8_snapshot.quantized = runtime::Unowned(&int8);
  int8_snapshot.predictor = runtime::Unowned(&predictor);
  int8_snapshot.item_profiles = runtime::Unowned(&dataset.item_profiles);
  int8_snapshot.tag = "bench-quant-int8";

  constexpr int64_t kUsers = 2000000;
  const auto stream = MakeUserReplay(dataset, kUsers);
  std::printf("\nsharded replay: %lld distinct simulated users, 2 shards\n",
              static_cast<long long>(kUsers));

  TablePrinter table("fp32 vs int8 snapshot through the sharded runtime");
  table.SetHeader({"snapshot", "wall_s", "req/s", "errors",
                   "worst_shard_p99_us"});
  ReplayOutcome fp32_run;
  ReplayOutcome int8_run;
  for (const bool quantized_run : {false, true}) {
    cluster::ShardedRuntime runtime(ServingConfig(prior));
    const auto published = runtime.PublishSharded(
        quantized_run ? int8_snapshot : fp32_snapshot);
    if (!published.ok()) {
      std::fprintf(stderr, "FATAL: publish failed: %s\n",
                   published.status().ToString().c_str());
      return 1;
    }
    const ReplayOutcome outcome = ReplayInChunks(stream, runtime);
    runtime.Shutdown();
    (quantized_run ? int8_run : fp32_run) = outcome;
    table.AddRow({quantized_run ? "int8" : "fp32",
                  TablePrinter::Num(outcome.wall_s, 3),
                  TablePrinter::Num(
                      static_cast<double>(stream.size()) / outcome.wall_s, 0),
                  std::to_string(outcome.errors),
                  TablePrinter::Num(outcome.worst_shard_p99_us, 1)});
  }
  table.Print();
  json.Add("fp32_worst_shard_p99_us", fp32_run.worst_shard_p99_us);
  json.Add("int8_worst_shard_p99_us", int8_run.worst_shard_p99_us);
  json.Add("int8_replay_errors", static_cast<double>(int8_run.errors));

  gates.Check(int8_run.errors == 0,
              "quantized snapshot replay finishes with zero errors");
  gates.Check(fp32_run.worst_shard_p99_us <= 0.0 ||
                  int8_run.worst_shard_p99_us <=
                      1.5 * fp32_run.worst_shard_p99_us,
              "int8 worst-shard fresh p99 within 1.5x of fp32");

  if (!json.Flush("BENCH_quantized.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_quantized.json\n");
  } else {
    std::printf("wrote BENCH_quantized.json\n");
  }
  return gates.exit_code();
}

}  // namespace
}  // namespace atnn::bench

int main() { return atnn::bench::Run(); }
