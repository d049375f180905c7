#ifndef ATNN_STREAM_STREAMING_TRAINER_H_
#define ATNN_STREAM_STREAMING_TRAINER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/atnn.h"
#include "core/negative_cache.h"
#include "core/popularity.h"
#include "core/trainer.h"
#include "data/tmall.h"
#include "obs/metrics_registry.h"
#include "runtime/snapshot_handle.h"
#include "sim/arrival_stream.h"

namespace atnn::stream {

/// Publication point for freshly trained snapshots. The trainer is
/// front-end-agnostic: bind InferenceRuntime::Publish for single-process
/// serving, ShardedRuntime::PublishSharded for the cluster, a
/// TenantRegistry fan-out, or a capturing lambda in tests. Must return the
/// assigned version on success; a non-OK Status leaves the previous
/// version serving (the trainer records the failure and keeps going —
/// publish rejection must not stall training).
using PublishFn =
    std::function<StatusOr<uint64_t>(runtime::ServingSnapshot)>;

/// Configuration of the streaming train-to-serve loop (DESIGN.md §17).
struct StreamingTrainerConfig {
  /// Architecture of the streamed model (must match any snapshot passed to
  /// WarmStartFrom).
  core::AtnnConfig model;
  /// Per-day incremental training options; `epochs` means passes over the
  /// day's feedback, and `seed` is the base the per-day seed derives from
  /// (see DaySeed). cross_batch_negatives may be set without a cache —
  /// the trainer owns a 4-batch cache and wires it in, so its FIFO
  /// persists across days.
  core::TrainOptions train;
  /// Size of the active-user group behind each published snapshot's
  /// popularity predictor (the paper's "top active users" device).
  int64_t active_user_group = 256;
  /// Historical train interactions sampled (with replacement) into each
  /// day's training set — anti-forgetting replay. 0 trains on the day's
  /// feedback alone.
  int64_t replay_interactions = 0;
  /// Snapshot tag prefix; "-day<d>" is appended per publish.
  std::string tag = "stream";
};

/// One day's report card. The staleness pair is the loop's core metric:
/// `served_auc` scores the newest cohort's feedback with the weights the
/// runtime is serving right now (yesterday's publish), `fresh_auc` with
/// the weights just trained on that cohort. fresh >= served means every
/// publish closes a real gap; the difference is the price of serving a
/// stale model for one day.
struct DayReport {
  int day = 0;
  int64_t cohort_items = 0;
  int64_t feedback_rows = 0;
  double served_auc = std::numeric_limits<double>::quiet_NaN();
  double fresh_auc = std::numeric_limits<double>::quiet_NaN();
  /// fresh_auc - served_auc.
  double staleness_gap = std::numeric_limits<double>::quiet_NaN();
  /// False when the day's feedback is single-class (AUC undefined; the
  /// three fields above are NaN) or empty.
  bool auc_valid = false;
  double train_ms = 0.0;
  double publish_ms = 0.0;
  uint64_t published_version = 0;
  bool published = false;
  /// Per-epoch losses of the day's incremental training run.
  std::vector<core::EpochStats> history;
  /// The exact interaction indices (into dataset()) the day trained on —
  /// cohort feedback first, then replay samples. Lets tests and benches
  /// replay the day through the public batch-trainer entry point and
  /// assert bitwise-equal loss histories.
  std::vector<int64_t> train_indices;
};

/// Incremental train-to-serve loop: consume one arrival-stream day,
/// measure the staleness of the currently-served weights on the new
/// cohort, warm-continue training on the cohort's feedback, and publish a
/// validated deep-copy snapshot into the live runtime via PublishFn.
///
/// The trainer owns a mutable copy of the dataset and appends each day's
/// feedback to its interaction log, so one day's cohort becomes history
/// the next day can replay. The published snapshot never aliases the
/// training model: it holds a copy of that model (copying an AtnnModel
/// gives every parameter a node of its own) and a rebuilt popularity
/// predictor, so the runtime's RCU swap hands workers a model no training
/// loop will ever mutate.
///
/// Determinism: with a fixed config and stream, two runs publish
/// bitwise-identical snapshots — day d trains with seed DaySeed(seed, d)
/// over an order-independent day (see ArrivalStream), warm-started from
/// the previous day's (equally deterministic) weights.
///
/// Metrics (owned registry, also handed to the per-day training loops):
/// counters stream.days / stream.cohort_items / stream.feedback_rows /
/// stream.publishes / stream.publish_failures / stream.invalid_auc_days,
/// gauges stream.staleness_auc_gap / stream.served_auc / stream.fresh_auc
/// / stream.last_published_version, histogram stream.publish_latency_us,
/// plus the trainers' train.* namespace.
///
/// Not thread-safe: one logical trainer thread calls Step/Run; the
/// PublishFn target is what's built for concurrent traffic.
class StreamingTrainer {
 public:
  StreamingTrainer(const data::TmallDataset& dataset,
                   StreamingTrainerConfig config, PublishFn publish);

  /// Per-day training seed: day d trains with DaySeed(train.seed, d), so
  /// each day reshuffles independently while staying reproducible.
  static uint64_t DaySeed(uint64_t base_seed, int day) {
    return HashCombine(base_seed, static_cast<uint64_t>(day) + 1);
  }

  /// Copies parameter values from a live snapshot's model (same
  /// architecture) into the training model — warm start from whatever the
  /// runtime is currently serving instead of from random init.
  Status WarmStartFrom(const core::AtnnModel& snapshot_model);

  /// Consumes the stream's next day end-to-end (append feedback ->
  /// staleness eval -> incremental train -> fresh eval -> publish).
  /// InvalidArgument on bad TrainOptions; the stream must not be Done().
  StatusOr<DayReport> Step(sim::ArrivalStream* arrivals);

  /// Steps until the stream is exhausted.
  StatusOr<std::vector<DayReport>> Run(sim::ArrivalStream* arrivals);

  /// Builds a publishable snapshot of the current weights: a deep copy of
  /// the training model, its rebuilt popularity predictor and the shared
  /// item profiles.
  runtime::ServingSnapshot MakeSnapshot(const std::string& tag);

  const core::AtnnModel& model() const { return *model_; }
  /// The trainer's dataset copy, including all appended feedback so far.
  const data::TmallDataset& dataset() const { return dataset_; }
  obs::MetricsRegistry& metrics_registry() { return registry_; }

 private:
  data::TmallDataset dataset_;
  StreamingTrainerConfig config_;
  PublishFn publish_;
  std::unique_ptr<core::AtnnModel> model_;
  std::shared_ptr<const data::EntityTable> item_profiles_;
  std::vector<int64_t> user_group_;
  core::NegativeCache negative_cache_;
  obs::MetricsRegistry registry_;
};

}  // namespace atnn::stream

#endif  // ATNN_STREAM_STREAMING_TRAINER_H_
