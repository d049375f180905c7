#include "world.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "bench.h"
#include "common/logging.h"
#include "core/feature_adapter.h"
#include "core/generator_plan.h"

namespace atnn::perfbench {

core::AtnnConfig ModelConfig(uint64_t seed) {
  core::AtnnConfig config;
  config.tower.kind = nn::TowerKind::kDeepCross;
  config.tower.deep_dims = {64, 32};
  config.tower.cross_layers = 3;
  config.tower.output_dim = 32;
  config.seed = seed;
  return config;
}

namespace {
constexpr uint64_t kWorldSeed = 20210304;
}  // namespace

World BuildWorld(const WorldSpec& spec) {
  World world;
  data::TmallConfig tmall;
  tmall.num_users = spec.users;
  tmall.num_items = spec.items;
  tmall.num_new_items = spec.new_items;
  tmall.num_interactions = spec.interactions;
  tmall.stats_noise = 0.5;
  tmall.quality_scale = 0.6;
  tmall.seed = kWorldSeed;
  world.dataset = data::GenerateTmallDataset(tmall);
  core::NormalizeTmallInPlace(&world.dataset);
  world.user_group = core::SelectActiveUsers(world.dataset, spec.active_users);
  world.item_profiles =
      std::make_shared<const data::EntityTable>(world.dataset.item_profiles);
  AddModel(world, /*seed=*/7, &world.model, &world.predictor);
  return world;
}

void AddModel(const World& world, uint64_t seed,
              std::shared_ptr<core::AtnnModel>* model,
              std::shared_ptr<core::PopularityPredictor>* predictor) {
  const data::TmallDataset& dataset = world.dataset;
  *model = std::make_shared<core::AtnnModel>(
      *dataset.user_schema, *dataset.item_profile_schema,
      *dataset.item_stats_schema, ModelConfig(seed));
  *predictor = std::make_shared<core::PopularityPredictor>(
      core::PopularityPredictor::Build(**model, dataset, world.user_group));
}

runtime::ServingSnapshot SnapshotOf(
    const World& world, std::shared_ptr<const core::AtnnModel> model,
    std::shared_ptr<const core::PopularityPredictor> predictor) {
  runtime::ServingSnapshot snapshot;
  snapshot.model = std::move(model);
  snapshot.predictor = std::move(predictor);
  snapshot.item_profiles = world.item_profiles;
  snapshot.tag = "perfbench";
  return snapshot;
}

StatusOr<std::vector<double>> ReferenceScores(
    const core::AtnnModel& model, const core::PopularityPredictor& predictor,
    const data::EntityTable& item_profiles, const std::vector<int64_t>& rows) {
  ATNN_ASSIGN_OR_RETURN(auto plan, core::CompileGeneratorPlan(
                                       model, item_profiles, kServingMaxBatch));
  ATNN_ASSIGN_OR_RETURN(
      std::vector<double> scores,
      core::ScoreItemsWithPlan(*plan, predictor, item_profiles, rows));
  std::vector<double> by_row(static_cast<size_t>(item_profiles.num_rows()),
                             std::numeric_limits<double>::quiet_NaN());
  for (size_t i = 0; i < rows.size(); ++i) {
    by_row[static_cast<size_t>(rows[i])] = scores[i];
  }
  return by_row;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double PeakRssMb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

void RuntimeTotals::Add(const runtime::StatsSnapshot& stats) {
  enqueued += stats.enqueued;
  cache_hits += stats.cache_hits;
  rejected += stats.rejected;
  degraded += stats.degraded;
  deadline_expired += stats.deadline_expired;
  plan_executions += stats.plan_executions;
  plan_exec_fallback += stats.plan_exec_fallback;
  enqueue_wait_us.MergeFrom(stats.enqueue_wait_us);
  batch_size.MergeFrom(stats.batch_size);
  score_us.MergeFrom(stats.score_us);
}

void ReportRuntimeLayer(const RuntimeTotals& totals, int64_t mutex_locks,
                        Report* report) {
  report->Layer("runtime.queue_wait_p50_us",
                totals.enqueue_wait_us.Percentile(0.5), "us");
  report->Layer("runtime.queue_wait_p99_us",
                totals.enqueue_wait_us.Percentile(0.99), "us");
  report->Layer("runtime.cache_hit_ratio",
                totals.enqueued > 0
                    ? static_cast<double>(totals.cache_hits) /
                          static_cast<double>(totals.enqueued)
                    : 0.0,
                "ratio");
  report->Layer("runtime.batch_rows_mean", totals.batch_size.Mean(), "rows");
  report->Layer("runtime.batch_score_p50_us", totals.score_us.Percentile(0.5),
                "us");
  report->Layer("runtime.batch_score_p99_us",
                totals.score_us.Percentile(0.99), "us");
  report->Layer("runtime.plan_executions",
                static_cast<double>(totals.plan_executions), "count");
  report->Layer("runtime.plan_exec_fallback",
                static_cast<double>(totals.plan_exec_fallback), "count");
  report->Layer("runtime.degraded", static_cast<double>(totals.degraded),
                "count");
  report->Layer("runtime.deadline_expired",
                static_cast<double>(totals.deadline_expired), "count");
  report->Layer("runtime.rejected", static_cast<double>(totals.rejected),
                "count");
  report->Layer("runtime.registry_mutex_acquisitions",
                static_cast<double>(mutex_locks), "count");
  if (mutex_locks != 0) {
    report->Fail("runtime metrics registry mutex taken " +
                 std::to_string(mutex_locks) +
                 " time(s) while serving; the score path must record "
                 "lock-free");
  }
}

}  // namespace atnn::perfbench
