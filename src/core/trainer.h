#ifndef ATNN_CORE_TRAINER_H_
#define ATNN_CORE_TRAINER_H_

#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "obs/metrics_registry.h"
#include "core/atnn.h"
#include "core/negative_cache.h"
#include "core/two_tower.h"
#include "data/normalize.h"
#include "data/tmall.h"

namespace atnn::core {

/// Shared knobs of the mini-batch training loops.
struct TrainOptions {
  int epochs = 3;
  int batch_size = 256;
  float learning_rate = 1e-3f;
  uint64_t seed = 99;
  bool verbose = false;
  /// Optional metrics sink (not owned). When set, the trainers record
  /// counter `train.steps`, histograms `train.step_us` / `train.epoch_ms`,
  /// and per-epoch gauges `train.epoch`, one `train.<loss>` per reported
  /// loss, `train.arena_high_water_bytes`. Recording is lock-free per step;
  /// see core/train_telemetry.h.
  obs::MetricsRegistry* metrics = nullptr;
  /// With `metrics` set, print one "ATNN_METRICS {json}" line per epoch
  /// (the machine-readable twin of `verbose`; atnn_train turns this on).
  bool emit_metric_lines = false;

  // --- Streaming/incremental switches (DESIGN.md §17). Both default off,
  // and off means the ATNN loop builds exactly the historical graphs in
  // the historical order — loss histories stay bitwise-identical to
  // pre-switch builds.

  /// Cross-batch negative sampling (CBNS, arXiv:2110.15154): add the
  /// embeddings cached in `negative_cache` as extra label-0 logits against
  /// the current batch's user vectors in the D step, and push each batch's
  /// generated item vectors into the cache after the G step. Requires
  /// `negative_cache`.
  bool cross_batch_negatives = false;
  /// Embedding FIFO backing cross_batch_negatives (not owned). Contents
  /// persist across calls on purpose: in the streaming trainer, day d+1's
  /// first batches see day d's tail cohort as negatives.
  NegativeCache* negative_cache = nullptr;
  /// One Backpropagation (arXiv:2403.18227): run only one adversarial
  /// half-step per batch — even global steps take the D step, odd steps
  /// the G step — instead of both. Gradient flows to one tower per step,
  /// halving the per-batch backward cost; the alternation preserves the
  /// adversarial schedule at epoch scale.
  bool one_backprop = false;

  /// InvalidArgument on junk that today trains garbage silently:
  /// non-positive epochs/batch_size (zero-step "histories"), non-finite or
  /// non-positive learning_rate (NaN parameters by step two; Adam refuses
  /// 0), and cross_batch_negatives without a cache. Every trainer runs
  /// through RunEpochs (core/epoch_loop.h), which checks this and aborts on
  /// failure (the StreamingTrainer surfaces it as a Status instead).
  Status Validate() const;
};

/// Per-epoch averages of the three paper losses (unused entries are 0).
struct EpochStats {
  double loss_i = 0.0;  // encoder-path CTR log loss (L_i)
  double loss_g = 0.0;  // generator-path CTR log loss (L_g)
  double loss_s = 0.0;  // similarity loss (L_s)
};

/// Trains a two-tower baseline with Adam on L_i over the train split.
/// An empty train split returns an empty history (no NaN epoch rows).
std::vector<EpochStats> TrainTwoTowerModel(TwoTowerModel* model,
                                           const data::TmallDataset& dataset,
                                           const TrainOptions& options);

/// Trains ATNN per Algorithm 1: for every mini-batch, a D step on L_i
/// followed by a G step on L_g + lambda * L_s.
/// An empty train split returns an empty history (no NaN epoch rows).
std::vector<EpochStats> TrainAtnnModel(AtnnModel* model,
                                       const data::TmallDataset& dataset,
                                       const TrainOptions& options);

/// The incremental entry point behind TrainAtnnModel: same Algorithm 1
/// loop, but over an explicit interaction-index set instead of the
/// dataset's train split. The streaming trainer calls this once per
/// arrival-stream day with the day's cohort feedback (plus optional
/// replay), warm-starting from the weights the previous day left in
/// `model`. Optimizer moments are rebuilt per call (periodic-retrain
/// semantics: warm weights, fresh Adam state). TrainAtnnModel(model,
/// dataset, options) is exactly TrainAtnnOnIndices over
/// dataset.train_indices — bitwise, not just statistically.
std::vector<EpochStats> TrainAtnnOnIndices(AtnnModel* model,
                                           const data::TmallDataset& dataset,
                                           std::span<const int64_t> indices,
                                           const TrainOptions& options);

/// Which scoring path to evaluate.
enum class CtrPath {
  kEncoder,    // complete item features (ideal baseline column of Table I)
  kGenerator,  // item profiles only (cold-start column of Table I)
};

/// Test-set AUC of a two-tower baseline. All Evaluate* functions score
/// through ScoreChunks: no-grad forwards, chunk by chunk in order.
double EvaluateTwoTowerAuc(const TwoTowerModel& model,
                           const data::TmallDataset& dataset,
                           const std::vector<int64_t>& interaction_indices,
                           int batch_size = 1024);

/// Overwrites a gathered (already normalized) statistics block with the
/// representation of *missing* statistics: train-mean imputation, which in
/// standardized space is all zeros. This is the cold-start serving
/// condition a complete-features-trained baseline faces on new arrivals —
/// the statistics do not exist, the pipeline fills in the default.
void MaskStatsAsMissing(data::BlockBatch* stats);

/// Test-set AUC of a complete-features-trained two-tower baseline when the
/// item statistics are missing (mean-imputed) at evaluation time — Table
/// I's cold-start column for the baselines.
double EvaluateTwoTowerAucMissingStats(
    const TwoTowerModel& model, const data::TmallDataset& dataset,
    const std::vector<int64_t>& interaction_indices, int batch_size = 1024);

/// Test-set AUC of ATNN through the chosen path.
double EvaluateAtnnAuc(const AtnnModel& model,
                       const data::TmallDataset& dataset,
                       const std::vector<int64_t>& interaction_indices,
                       CtrPath path, int batch_size = 1024);

/// Splits `indices` into contiguous chunks of at most batch_size. The
/// chunks are views into `indices`, which must outlive (and not be
/// reallocated or reshuffled under) them.
std::vector<std::span<const int64_t>> MakeBatchSpans(
    std::span<const int64_t> indices, int batch_size);

/// The one evaluation loop: runs fn(first, chunk) over the MakeBatchSpans
/// chunks of `rows` in order, where `first` is the chunk's position in
/// `rows`. Each call runs under a no-grad guard and its own arena scope.
void ForEachChunk(
    std::span<const int64_t> rows, int batch_size,
    const std::function<void(size_t first, std::span<const int64_t> chunk)>&
        fn);

/// ForEachChunk for one score per row: concatenates score(chunk) in chunk
/// order.
std::vector<double> ScoreChunks(
    std::span<const int64_t> rows, int batch_size,
    const std::function<std::vector<double>(std::span<const int64_t>)>&
        score);

/// The click labels of the given interaction indices.
std::vector<float> GatherLabels(const data::TmallDataset& dataset,
                                std::span<const int64_t> indices);

}  // namespace atnn::core

#endif  // ATNN_CORE_TRAINER_H_
