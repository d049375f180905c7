#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

// The synthetic world each workload serves: dataset, model, popularity
// predictor, and the reference scores outputs are checked against.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/atnn.h"
#include "core/popularity.h"
#include "data/tmall.h"
#include "obs/histogram.h"
#include "runtime/inference_runtime.h"

namespace atnn::perfbench {

/// Micro-batch ceiling of every runtime the benchmark builds; reference
/// scores come from plans compiled for the same ceiling.
inline constexpr int64_t kServingMaxBatch = 64;

struct WorldSpec {
  int64_t users = 1000;
  int64_t items = 2000;
  int64_t new_items = 600;
  int64_t interactions = 50000;
  /// Active-user group behind the popularity predictor.
  int64_t active_users = 300;
};

struct World {
  data::TmallDataset dataset;
  std::vector<int64_t> user_group;
  std::shared_ptr<const data::EntityTable> item_profiles;
  std::shared_ptr<core::AtnnModel> model;
  std::shared_ptr<core::PopularityPredictor> predictor;
};

/// The generator architecture every workload serves: the repo's bench
/// tower (Deep & Cross, deep 64/32, 3 cross layers, 32-d output).
core::AtnnConfig ModelConfig(uint64_t seed);

/// Generates and normalizes the dataset, initializes a model (weights at
/// their seeded initialization: serving cost depends on tower shapes, not on
/// what the weights converged to) and builds its predictor. The world is
/// the same on every run: the workload seed drives the traffic, the chunk
/// order and the day's feedback, not the catalog, so seeds differ in what
/// the program is asked, not in how much work one answer takes.
World BuildWorld(const WorldSpec& spec);

/// A second model over the same world (another initialization seed) with
/// its own predictor: the "next day's" snapshot.
void AddModel(const World& world, uint64_t seed,
              std::shared_ptr<core::AtnnModel>* model,
              std::shared_ptr<core::PopularityPredictor>* predictor);

runtime::ServingSnapshot SnapshotOf(
    const World& world, std::shared_ptr<const core::AtnnModel> model,
    std::shared_ptr<const core::PopularityPredictor> predictor);

/// Reference scores of `rows` (indexed by row; other entries NaN) through
/// core::CompileGeneratorPlan + core::ScoreItemsWithPlan.
StatusOr<std::vector<double>> ReferenceScores(
    const core::AtnnModel& model, const core::PopularityPredictor& predictor,
    const data::EntityTable& item_profiles, const std::vector<int64_t>& rows);

/// Bitwise equality of two doubles (NaN payloads included).
bool SameBits(double a, double b);

/// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMb();

/// Runtime counters every workload reports as per-layer metrics; summed
/// over shards for the sharded front-end.
struct RuntimeTotals {
  int64_t enqueued = 0;
  int64_t cache_hits = 0;
  int64_t rejected = 0;
  int64_t degraded = 0;
  int64_t deadline_expired = 0;
  int64_t plan_executions = 0;
  int64_t plan_exec_fallback = 0;
  obs::LogHistogram enqueue_wait_us;
  obs::LogHistogram batch_size;
  obs::LogHistogram score_us;

  void Add(const runtime::StatsSnapshot& stats);
};

struct Report;
/// Emits the runtime.* per-layer metrics shared by every workload.
void ReportRuntimeLayer(const RuntimeTotals& totals, int64_t mutex_locks,
                        Report* report);

}  // namespace atnn::perfbench

#endif  // PERFBENCH_WORLD_H_
