// Scoring CLI: the serving-side counterpart of atnn_train. Reconstructs
// the feature tables from the shared world seed, loads the model snapshot,
// and answers top-K popularity queries over the new arrivals — either from
// the precomputed index or by re-scoring with the model.
//
//   $ atnn_score --snapshot=/tmp/atnn_snapshot.bin --top_k=20

#include <cstdio>

#include "common/flags.h"
#include "core/atnn.h"
#include "core/feature_adapter.h"
#include "core/generator_plan.h"
#include "core/popularity.h"
#include "data/tmall.h"
#include "quant/quantized_generator.h"
#include "serving/compute_flags.h"
#include "serving/model_snapshot.h"
#include "serving/popularity_index.h"

namespace {

constexpr char kModelTag[] = "atnn-cli-v1";

int Run(int argc, const char* const* argv) {
  using namespace atnn;

  FlagParser flags(
      "atnn_score — load an ATNN snapshot and rank new arrivals");
  flags.AddInt64("users", 2000, "number of users (must match training)");
  flags.AddInt64("items", 4000, "number of catalog items (must match)");
  flags.AddInt64("new_items", 1000, "number of new arrivals (must match)");
  flags.AddInt64("interactions", 150000, "interactions (must match)");
  flags.AddInt64("data_seed", 20210304, "world seed (must match training)");
  flags.AddInt64("vector_dim", 32, "vector width (must match training)");
  flags.AddInt64("user_group", 500, "active-user group size");
  flags.AddInt64("top_k", 20, "how many items to print");
  flags.AddString("snapshot", "/tmp/atnn_snapshot.bin",
                  "model snapshot from atnn_train");
  flags.AddString("index", "",
                  "optional: serve from this precomputed index instead of "
                  "re-scoring");
  serving::AddComputeFlags(
      &flags,
      "re-score through a low-precision generator: fp32 | bf16 "
      "| int8. Loads '<snapshot>.<precision>' when atnn_train "
      "wrote one, else quantizes the loaded model in-process");
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
  std::printf("kernel backend: %s\n", compute.backend_name.c_str());
  const auto top_k = flags.GetInt64("top_k");

  // Fast path: answer from the precomputed index.
  if (!flags.GetString("index").empty()) {
    auto index_or =
        serving::PopularityIndex::LoadFromFile(flags.GetString("index"));
    if (!index_or.ok()) {
      std::fprintf(stderr, "index load failed: %s\n",
                   index_or.status().ToString().c_str());
      return 1;
    }
    std::printf("top %lld new arrivals (from index, %zu items):\n",
                static_cast<long long>(top_k), index_or->size());
    int rank = 1;
    for (const auto& [item, score] : index_or->TopK(top_k)) {
      std::printf("  #%3d item %lld  score %.4f\n", rank++,
                  static_cast<long long>(item), score);
    }
    return 0;
  }

  // Re-scoring path: rebuild the world from the seed, load the snapshot.
  data::TmallConfig world;
  world.num_users = flags.GetInt64("users");
  world.num_items = flags.GetInt64("items");
  world.num_new_items = flags.GetInt64("new_items");
  world.num_interactions = flags.GetInt64("interactions");
  world.seed = static_cast<uint64_t>(flags.GetInt64("data_seed"));
  data::TmallDataset dataset = data::GenerateTmallDataset(world);
  core::NormalizeTmallInPlace(&dataset);

  core::AtnnConfig config;
  config.tower.deep_dims = {64, 32};
  config.tower.cross_layers = 3;
  config.tower.output_dim = flags.GetInt64("vector_dim");
  config.seed = 7;
  core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                        *dataset.item_stats_schema, config);
  // Retrying loader: atnn_score is routinely pointed at a snapshot that a
  // concurrently running trainer is rotating; a mid-write read is an
  // IoError worth a second attempt, not a failed run.
  status = serving::LoadModelSnapshotWithRetry(
      &model, flags.GetString("snapshot"), kModelTag);
  if (!status.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  const auto group =
      core::SelectActiveUsers(dataset, flags.GetInt64("user_group"));
  const auto predictor =
      core::PopularityPredictor::Build(model, dataset, group);

  // Every precision scores through a plan. A quantized one is lowered from
  // atnn_train's artifact, or else from quantizing the loaded model.
  constexpr int64_t kMaxBatch = 1024;
  const auto plan =
      [&]() -> StatusOr<std::shared_ptr<const nn::ir::CompiledPlan>> {
    if (compute.precision == quant::Precision::kFp32) {
      return core::CompileGeneratorPlan(model, dataset.item_profiles,
                                        kMaxBatch);
    }
    const std::string quant_path = flags.GetString("snapshot") + "." +
                                   quant::PrecisionName(compute.precision);
    auto quantized = quant::QuantizedGenerator::Load(quant_path, kModelTag);
    if (!quantized.ok()) {
      quantized = quant::QuantizedGenerator::Build(
          model, data::GatherBlock(dataset.item_profiles, dataset.new_items),
          compute.precision);
    }
    ATNN_RETURN_IF_ERROR(quantized.status());
    auto artifact = std::make_shared<const quant::QuantizedGenerator>(
        std::move(quantized).value());
    return quant::CompileQuantizedPlan(*artifact, dataset.item_profiles,
                                       kMaxBatch, artifact);
  }();
  auto scored = plan.ok() ? core::ScoreItemsWithPlan(**plan, predictor,
                                                     dataset.item_profiles,
                                                     dataset.new_items)
                          : StatusOr<std::vector<double>>(plan.status());
  if (!scored.ok()) {
    std::fprintf(stderr, "%s scoring failed: %s\n",
                 quant::PrecisionName(compute.precision),
                 scored.status().ToString().c_str());
    return 1;
  }
  const std::vector<double>& scores = *scored;
  if (compute.precision != quant::Precision::kFp32) {
    std::printf("precision: %s\n", quant::PrecisionName(compute.precision));
  }
  serving::PopularityIndex index;
  index.BulkLoad(dataset.new_items, scores);

  std::printf("top %lld of %zu new arrivals (re-scored):\n",
              static_cast<long long>(top_k), scores.size());
  int rank = 1;
  for (const auto& [item, score] : index.TopK(top_k)) {
    std::printf("  #%3d item %lld  score %.4f\n", rank++,
                static_cast<long long>(item), score);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
