#ifndef ATNN_BASELINES_BASELINE_TRAINER_H_
#define ATNN_BASELINES_BASELINE_TRAINER_H_

#include <span>
#include <utility>
#include <vector>

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

}  // namespace atnn::baselines

#endif  // ATNN_BASELINES_BASELINE_TRAINER_H_
