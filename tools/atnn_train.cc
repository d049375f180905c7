// Training CLI: generates (or regenerates) the synthetic Tmall world,
// trains ATNN, reports offline quality, and writes the serving artifacts —
// a model snapshot and a popularity index over the new arrivals.
//
//   $ atnn_train --epochs=4 --snapshot=/tmp/atnn.bin --index=/tmp/pop.bin
//
// The world is fully determined by --data_seed, so a scorer process can
// reconstruct the same feature tables from the seed alone (stand-in for a
// shared feature store).

#include <cstdio>

#include "common/flags.h"
#include "core/atnn.h"
#include "core/feature_adapter.h"
#include "core/generator_plan.h"
#include "core/popularity.h"
#include "core/trainer.h"
#include "data/tmall.h"
#include "obs/metrics_registry.h"
#include "quant/quantized_generator.h"
#include "serving/compute_flags.h"
#include "serving/model_snapshot.h"
#include "serving/popularity_index.h"

namespace {

constexpr char kModelTag[] = "atnn-cli-v1";

int Run(int argc, const char* const* argv) {
  using namespace atnn;

  FlagParser flags(
      "atnn_train — train ATNN on the synthetic Tmall world and emit "
      "serving artifacts");
  flags.AddInt64("users", 2000, "number of users in the world");
  flags.AddInt64("items", 4000, "number of catalog items");
  flags.AddInt64("new_items", 1000, "number of cold-start new arrivals");
  flags.AddInt64("interactions", 150000, "number of click interactions");
  flags.AddInt64("data_seed", 20210304, "world seed (shared with scorers)");
  flags.AddInt64("epochs", 3, "training epochs");
  flags.AddInt64("batch_size", 256, "mini-batch size");
  flags.AddDouble("learning_rate", 2e-3, "Adam learning rate");
  flags.AddDouble("lambda", 0.1, "similarity-loss weight, >= 0 (paper: 0.1)");
  flags.AddInt64("vector_dim", 32, "item/user vector width");
  flags.AddInt64("user_group", 500, "active-user group size for the mean "
                                    "user vector, >= 1");
  flags.AddString("snapshot", "/tmp/atnn_snapshot.bin",
                  "output path for the model snapshot");
  flags.AddString("index", "/tmp/atnn_popularity.bin",
                  "output path for the popularity index");
  serving::AddComputeFlags(
      &flags,
      "also emit a low-precision serving artifact: fp32 (none) "
      "| bf16 | int8. Written next to --snapshot with a "
      "'.<precision>' suffix, calibrated on the new arrivals");
  flags.AddBool("metric_lines", true,
                "print one machine-readable ATNN_METRICS {json} line per "
                "epoch (loss gauges, step-time histogram, arena high-water)");
  flags.AddBool("help", false, "print usage");

  Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }
  const auto compute_or = serving::ResolveComputeFlags(flags);
  if (!compute_or.ok()) {
    std::fprintf(stderr, "%s\n", compute_or.status().ToString().c_str());
    return 2;
  }
  const serving::ComputeOptions& compute = *compute_or;
  core::TrainOptions options;
  options.epochs = static_cast<int>(flags.GetInt64("epochs"));
  options.batch_size = static_cast<int>(flags.GetInt64("batch_size"));
  options.learning_rate =
      static_cast<float>(flags.GetDouble("learning_rate"));
  // Validate here so a bad flag yields a usage error, not the trainer's
  // abort after the world is generated. A negative lambda would train the
  // generator away from the encoder; an empty user group aborts only after
  // training, when the popularity predictor is built.
  status = options.Validate();
  if (status.ok() && flags.GetDouble("lambda") < 0.0) {
    status = Status::InvalidArgument("lambda must be >= 0");
  }
  if (status.ok() && flags.GetInt64("user_group") < 1) {
    status = Status::InvalidArgument("user_group must be >= 1");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  std::printf("kernel backend: %s\n", compute.backend_name.c_str());

  data::TmallConfig world;
  world.num_users = flags.GetInt64("users");
  world.num_items = flags.GetInt64("items");
  world.num_new_items = flags.GetInt64("new_items");
  world.num_interactions = flags.GetInt64("interactions");
  world.seed = static_cast<uint64_t>(flags.GetInt64("data_seed"));
  data::TmallDataset dataset = data::GenerateTmallDataset(world);
  core::NormalizeTmallInPlace(&dataset);
  std::printf("world: %lld users / %lld items / %lld new arrivals / %zu "
              "interactions (seed %llu)\n",
              static_cast<long long>(world.num_users),
              static_cast<long long>(world.num_items),
              static_cast<long long>(world.num_new_items),
              dataset.labels.size(),
              static_cast<unsigned long long>(world.seed));

  core::AtnnConfig config;
  config.tower.deep_dims = {64, 32};
  config.tower.cross_layers = 3;
  config.tower.output_dim = flags.GetInt64("vector_dim");
  config.lambda = static_cast<float>(flags.GetDouble("lambda"));
  config.seed = 7;
  core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                        *dataset.item_stats_schema, config);

  options.verbose = true;
  obs::MetricsRegistry training_metrics;
  options.metrics = &training_metrics;
  options.emit_metric_lines = flags.GetBool("metric_lines");
  core::TrainAtnnModel(&model, dataset, options);

  const double auc_complete = core::EvaluateAtnnAuc(
      model, dataset, dataset.test_indices, core::CtrPath::kEncoder);
  const double auc_cold = core::EvaluateAtnnAuc(
      model, dataset, dataset.test_indices, core::CtrPath::kGenerator);
  std::printf("test AUC — complete: %.4f | cold start: %.4f\n", auc_complete,
              auc_cold);

  status = serving::SaveModelSnapshot(&model, flags.GetString("snapshot"),
                                      kModelTag);
  if (!status.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("snapshot: %s\n", flags.GetString("snapshot").c_str());

  if (compute.precision != quant::Precision::kFp32) {
    const data::BlockBatch calibration =
        data::GatherBlock(dataset.item_profiles, dataset.new_items);
    auto quantized = quant::QuantizedGenerator::Build(model, calibration,
                                                      compute.precision);
    if (!quantized.ok()) {
      std::fprintf(stderr, "quantization failed: %s\n",
                   quantized.status().ToString().c_str());
      return 1;
    }
    const std::string quant_path = flags.GetString("snapshot") + "." +
                                   quant::PrecisionName(compute.precision);
    status = quantized->Save(quant_path, kModelTag);
    if (!status.ok()) {
      std::fprintf(stderr, "quantized save failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("quantized artifact: %s (%lld bytes, %.2fx of fp32)\n",
                quant_path.c_str(),
                static_cast<long long>(quantized->QuantizedByteSize()),
                static_cast<double>(quantized->QuantizedByteSize()) /
                    static_cast<double>(quantized->Fp32ByteSize()));
  }

  const auto group =
      core::SelectActiveUsers(dataset, flags.GetInt64("user_group"));
  const auto predictor =
      core::PopularityPredictor::Build(model, dataset, group);
  const auto plan = core::CompileGeneratorPlan(model, dataset.item_profiles,
                                               /*max_batch=*/1024);
  const auto scores = plan.ok() ? core::ScoreItemsWithPlan(
                                      **plan, predictor,
                                      dataset.item_profiles, dataset.new_items)
                                : StatusOr<std::vector<double>>(plan.status());
  if (!scores.ok()) {
    std::fprintf(stderr, "compiled scoring failed: %s\n",
                 scores.status().ToString().c_str());
    return 1;
  }
  serving::PopularityIndex index;
  index.BulkLoad(dataset.new_items, *scores);
  status = index.SaveToFile(flags.GetString("index"));
  if (!status.ok()) {
    std::fprintf(stderr, "index save failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("popularity index: %s (%zu new arrivals scored)\n",
              flags.GetString("index").c_str(), index.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
