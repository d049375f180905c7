// Low-precision inference bench: the promises of the int8/bf16 serving
// path (DESIGN.md §15), measured and gated.
//
//   (a) QUALITY — the generator-path (cold-start) test AUC through the
//       int8 and bf16 artifacts must sit within 0.001 of the fp32 model
//       on the seeded eval set. Report-only under --smoke / sanitizers
//       (the smoke model is deliberately undertrained — near-chance AUC
//       makes the delta pure rank noise).
//   (b) SIZE — the int8 artifact must serialize to <= 0.35x of the fp32
//       bytes it replaces (target ~0.3x: 1 byte + per-row/col scales),
//       bf16 to <= 0.55x. Hard gates everywhere.
//   (c) DETERMINISM — the lowered int8 plan's forward is BITWISE
//       identical between the AVX2 and pinned-scalar backends (integer
//       accumulation is exact, the dequant epilogue is two single-rounded
//       multiplies on both), and a save -> load -> lower round trip
//       reproduces the in-memory forward bitwise. Hard gates (the AVX2
//       half is skipped on hosts without AVX2+FMA).
//   (d) SAFETY — a quantized artifact with a poisoned scale (NaN or zero)
//       must be rejected by ValidateServingSnapshot. Hard gate.
//   (e) SERVING — a quantized snapshot (model dropped, quantized set)
//       served through the sharded runtime answers a distinct-user Zipf
//       replay with ZERO errors (hard), and the worst per-shard fresh-tier
//       p99 stays within 1.5x of the fp32 snapshot on the same stream
//       (report-only under --smoke / sanitizers: tails are noise there).
//
// Emits BENCH_quantized.json for dashboards.
//
//   $ ./build/bench/bench_quantized            # full replay, hard gates
//   $ ./build/bench/bench_quantized --smoke    # CI sanitizer budget

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/sharded_runtime.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/popularity.h"
#include "metrics/metrics.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "quant/quantized_generator.h"
#include "runtime/snapshot_handle.h"
#include "serving/popularity_index.h"

namespace atnn::bench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

struct JsonWriter {
  std::string body;
  void Add(const std::string& key, double value) {
    body += (body.empty() ? "" : ",\n") + std::string("  \"") + key +
            "\": " + std::to_string(value);
  }
  bool Flush(const std::string& path) {
    std::ofstream out(path, std::ios::trunc);
    out << "{\n" << body << "\n}\n";
    return out.good();
  }
};

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

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
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
      indices, kChunk, /*pool=*/nullptr, [&](std::span<const int64_t> chunk) {
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

/// One request per distinct simulated user (defeats request memoization
/// above the runtime; only the item distribution is Zipf-skewed).
std::vector<int64_t> MakeUserReplay(const data::TmallDataset& dataset,
                                    int64_t num_users) {
  std::vector<int64_t> stream;
  stream.reserve(static_cast<size_t>(num_users));
  Rng base(777);
  for (int64_t user = 0; user < num_users; ++user) {
    Rng rng = base.Fork(static_cast<uint64_t>(user));
    stream.push_back(
        dataset.new_items[rng.Zipf(dataset.new_items.size(), 1.1)]);
  }
  return stream;
}

struct ReplayOutcome {
  int64_t errors = 0;
  double wall_s = 0.0;
  double worst_shard_p99_us = 0.0;
};

ReplayOutcome Replay(cluster::ShardedRuntime& runtime,
                     const std::vector<int64_t>& stream) {
  constexpr size_t kReplayChunk = 1000;
  ReplayOutcome outcome;
  Stopwatch timer;
  for (size_t begin = 0; begin < stream.size(); begin += kReplayChunk) {
    const size_t end = std::min(begin + kReplayChunk, stream.size());
    const std::vector<int64_t> chunk(stream.begin() + begin,
                                     stream.begin() + end);
    for (const auto& result : runtime.ScoreBatch(chunk)) {
      if (!result.ok()) ++outcome.errors;
    }
  }
  outcome.wall_s = timer.ElapsedSeconds();
  for (size_t s = 0; s < runtime.num_shards(); ++s) {
    outcome.worst_shard_p99_us =
        std::max(outcome.worst_shard_p99_us,
                 runtime.shard(s).stats().fresh_latency_us.Percentile(0.99));
  }
  return outcome;
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

int Run(bool smoke) {
  using nn::kernels::Backend;
  int failures = 0;
  const auto gate = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS:" : "FAIL:", what.c_str());
    if (!ok) ++failures;
  };
  const auto report_or_gate = [&](bool hard, bool ok,
                                  const std::string& what) {
    if (hard) {
      gate(ok, what);
    } else {
      std::printf("%s %s (report-only)\n", ok ? "PASS:" : "WARN:",
                  what.c_str());
    }
  };
  JsonWriter json;
  const bool avx2 = nn::kernels::Avx2Supported();
  std::printf("quantized bench: host %s AVX2+FMA, %s%s\n\n",
              avx2 ? "has" : "lacks",
              kSanitized ? "sanitized build" : "plain build",
              smoke ? ", smoke budget" : "");

  // --- world + trained model ---
  data::TmallConfig world = PaperScaleTmallConfig();
  world.num_users = smoke ? 200 : 1000;
  world.num_items = smoke ? 500 : 2000;
  world.num_new_items = smoke ? 150 : 600;
  world.num_interactions = smoke ? 8000 : 50000;
  data::TmallDataset dataset = data::GenerateTmallDataset(world);
  core::NormalizeTmallInPlace(&dataset);

  core::AtnnConfig model_config;
  model_config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  model_config.seed = 7;
  core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                        *dataset.item_stats_schema, model_config);
  core::TrainOptions options = BenchTrainOptions();
  options.epochs = smoke ? 1 : 2;
  core::TrainAtnnModel(&model, dataset, options);

  // --- build both artifacts, calibrated on the cold-start arrivals ---
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

  // --- (b) size ---
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
  gate(int8_ratio <= 0.35, "int8 artifact <= 0.35x of fp32 bytes");
  gate(bf16_ratio <= 0.55, "bf16 artifact <= 0.55x of fp32 bytes");

  // --- (a) cold-start AUC ---
  const double auc_fp32 = core::EvaluateAtnnAuc(
      model, dataset, dataset.test_indices, core::CtrPath::kGenerator);
  const auto int8_plan = Lower(int8, dataset.item_profiles);
  const double auc_int8 = QuantizedGeneratorAuc(model, *int8_plan, dataset,
                                                dataset.test_indices);
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
  // Report-only under --smoke: the 1-epoch smoke model sits at ~chance AUC,
  // where rankings are noise and the delta measures nothing.
  report_or_gate(!smoke && !kSanitized, std::abs(auc_int8 - auc_fp32) < 0.001,
                 "int8 cold-start AUC within 0.001 of fp32");
  report_or_gate(!smoke && !kSanitized, std::abs(auc_bf16 - auc_fp32) < 0.001,
                 "bf16 cold-start AUC within 0.001 of fp32");

  // --- (c) determinism: backend bitwise + round trip ---
  {
    const std::vector<float> active_out = PlanVectors(*int8_plan, calibration);
    if (avx2) {
      const Backend previous = nn::kernels::ActiveBackend();
      ATNN_CHECK(nn::kernels::SetBackend(Backend::kScalar).ok());
      const std::vector<float> scalar_out =
          PlanVectors(*int8_plan, calibration);
      ATNN_CHECK(nn::kernels::SetBackend(Backend::kAvx2).ok());
      const std::vector<float> avx2_out = PlanVectors(*int8_plan, calibration);
      ATNN_CHECK(nn::kernels::SetBackend(previous).ok());
      gate(BitwiseEqual(scalar_out, avx2_out),
           "int8 forward bitwise identical: AVX2 vs pinned-scalar");
    } else {
      std::printf("SKIP: int8 AVX2-vs-scalar bitwise gate (host lacks "
                  "AVX2+FMA)\n");
    }

    const std::string path = "BENCH_quantized_artifact.tmp";
    ATNN_CHECK(int8.Save(path, "bench-quant").ok());
    auto loaded = quant::QuantizedGenerator::Load(path, "bench-quant");
    std::remove(path.c_str());
    ATNN_CHECK(loaded.ok()) << loaded.status().ToString();
    const std::vector<float> loaded_out =
        PlanVectors(*Lower(*loaded, dataset.item_profiles), calibration);
    gate(BitwiseEqual(active_out, loaded_out),
         "int8 save -> load round trip reproduces the forward bitwise");
  }

  // --- shared serving pieces ---
  const auto group = core::SelectActiveUsers(dataset, smoke ? 100 : 300);
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

  // --- (d) a poisoned scale never reaches serving ---
  {
    gate(runtime::ValidateServingSnapshot(int8_snapshot).ok(),
         "clean quantized snapshot passes validation");
    quant::QuantizedGenerator poisoned = int8;  // deep copy
    poisoned.CorruptScaleForTest(
        std::numeric_limits<float>::quiet_NaN());
    runtime::ServingSnapshot bad = int8_snapshot;
    bad.quantized = runtime::Unowned(&poisoned);
    gate(!runtime::ValidateServingSnapshot(bad).ok(),
         "NaN quantization scale rejected by snapshot validation");
    poisoned.CorruptScaleForTest(0.0f);
    gate(!runtime::ValidateServingSnapshot(bad).ok(),
         "zero quantization scale rejected by snapshot validation");
  }

  // --- (e) sharded replay: fp32 baseline, then the quantized snapshot ---
  const int64_t num_users = smoke ? 20000 : 2000000;
  const auto stream = MakeUserReplay(dataset, num_users);
  std::printf("\nsharded replay: %lld distinct simulated users, 2 shards\n",
              static_cast<long long>(num_users));

  TablePrinter table("fp32 vs int8 snapshot through the sharded runtime");
  table.SetHeader({"snapshot", "wall_s", "req/s", "errors",
                   "worst_shard_p99_us"});
  double fp32_p99 = 0.0;
  double int8_p99 = 0.0;
  int64_t int8_errors = 0;
  for (const bool quantized_run : {false, true}) {
    cluster::ShardedRuntime runtime(ServingConfig(prior));
    const auto published = runtime.PublishSharded(
        quantized_run ? int8_snapshot : fp32_snapshot);
    if (!published.ok()) {
      std::fprintf(stderr, "FATAL: publish failed: %s\n",
                   published.status().ToString().c_str());
      return 1;
    }
    const ReplayOutcome outcome = Replay(runtime, stream);
    runtime.Shutdown();
    if (quantized_run) {
      int8_p99 = outcome.worst_shard_p99_us;
      int8_errors = outcome.errors;
    } else {
      fp32_p99 = outcome.worst_shard_p99_us;
    }
    table.AddRow({quantized_run ? "int8" : "fp32",
                  TablePrinter::Num(outcome.wall_s, 3),
                  TablePrinter::Num(
                      static_cast<double>(stream.size()) / outcome.wall_s, 0),
                  std::to_string(outcome.errors),
                  TablePrinter::Num(outcome.worst_shard_p99_us, 1)});
  }
  table.Print();
  json.Add("fp32_worst_shard_p99_us", fp32_p99);
  json.Add("int8_worst_shard_p99_us", int8_p99);
  json.Add("int8_replay_errors", static_cast<double>(int8_errors));

  gate(int8_errors == 0, "quantized snapshot replay finishes with zero "
                         "errors");
  report_or_gate(!smoke && !kSanitized,
                 fp32_p99 <= 0.0 || int8_p99 <= 1.5 * fp32_p99,
                 "int8 worst-shard fresh p99 within 1.5x of fp32");

  if (!json.Flush("BENCH_quantized.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_quantized.json\n");
  } else {
    std::printf("wrote BENCH_quantized.json\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace atnn::bench

int main(int argc, char** argv) {
  atnn::FlagParser flags("Low-precision inference benchmark");
  flags.AddBool("smoke", false,
                "smaller world and replay for CI sanitizer jobs; AUC and "
                "p99 gates become report-only, byte-size / bitwise / "
                "validation / zero-error gates stay hard");
  const atnn::Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  return atnn::bench::Run(flags.GetBool("smoke"));
}
