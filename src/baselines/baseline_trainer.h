#ifndef ATNN_BASELINES_BASELINE_TRAINER_H_
#define ATNN_BASELINES_BASELINE_TRAINER_H_

#include <span>
#include <utility>
#include <vector>

#include "baselines/sparse_encoder.h"
#include "core/epoch_loop.h"
#include "core/trainer.h"
#include "data/tmall.h"
#include "metrics/metrics.h"

namespace atnn::baselines {

/// Trains any autograd CTR baseline exposing
///   nn::Var Logits(const data::CtrBatch&) const
/// (WideDeepModel, DeepFmModel, ConcatDnnModel) with Adam on the BCE loss,
/// through the shared epoch loop (so every TrainOptions field applies).
/// Returns the mean training loss per epoch, reported as `train.loss`.
template <typename Model>
std::vector<double> TrainCtrBaseline(Model* model,
                                     const data::TmallDataset& dataset,
                                     const core::TrainOptions& options) {
  std::vector<double> history;
  double total = 0.0;
  core::RunEpochs<data::CtrBatch>(
      dataset.train_indices, options,
      {.name = "ctr-baseline",
       .groups = {model->Parameters()},
       .make_batch =
           [&dataset](std::span<const int64_t> rows) {
             return data::MakeCtrBatch(dataset, rows);
           },
       .step =
           [&](const data::CtrBatch& batch, const core::GroupUpdate& update) {
             nn::Var loss = nn::SigmoidBceLossWithLogits(model->Logits(batch),
                                                         batch.labels);
             update(0, loss);
             total += loss.value().scalar();
           },
       .end_epoch =
           [&](int64_t steps) -> core::EpochLosses {
             const double mean =
                 std::exchange(total, 0.0) / static_cast<double>(steps);
             return {{"loss", history.emplace_back(mean)}};
           }});
  return history;
}

/// Test AUC of an autograd CTR baseline (no-grad forwards via ScoreChunks).
template <typename Model>
double EvaluateCtrBaselineAuc(const Model& model,
                              const data::TmallDataset& dataset,
                              const std::vector<int64_t>& indices,
                              int batch_size = 1024) {
  return metrics::Auc(
      core::ScoreChunks(indices, batch_size,
                        [&](std::span<const int64_t> chunk) {
                          return model.PredictCtr(
                              data::MakeCtrBatch(dataset, chunk));
                        }),
      core::GatherLabels(dataset, indices));
}

/// Interactions in sparse form, for the linear-era baselines (LR, FM).
struct SparseDatasetView {
  std::vector<SparseRow> rows;
  std::vector<float> labels;
};

/// Encodes the given interaction indices into sparse rows.
inline SparseDatasetView EncodeInteractions(
    const data::TmallDataset& dataset, const std::vector<int64_t>& indices,
    const SparseCtrEncoder& encoder, int batch_size = 4096) {
  SparseDatasetView view;
  view.rows.reserve(indices.size());
  view.labels.reserve(indices.size());
  for (const auto chunk : core::MakeBatchSpans(indices, batch_size)) {
    const data::CtrBatch batch = MakeCtrBatch(dataset, chunk);
    auto encoded = encoder.Encode(batch);
    for (auto& row : encoded) view.rows.push_back(std::move(row));
    for (int64_t r = 0; r < batch.labels.rows(); ++r) {
      view.labels.push_back(batch.labels.at(r, 0));
    }
  }
  return view;
}

}  // namespace atnn::baselines

#endif  // ATNN_BASELINES_BASELINE_TRAINER_H_
