#include "core/multitask_trainer.h"

#include <utility>

#include "core/epoch_loop.h"
#include "metrics/metrics.h"

namespace atnn::core {

std::vector<MultiTaskEpochStats> TrainMultiTaskAtnn(
    MultiTaskAtnnModel* model, const data::ElemeDataset& dataset,
    const TrainOptions& options) {
  constexpr size_t kD = 0;
  constexpr size_t kG = 1;
  const bool adversarial = model->config().adversarial;
  const float lambda1 = model->config().lambda1;
  const float lambda2 = model->config().lambda2;
  std::vector<std::vector<nn::Parameter*>> groups = {
      model->DiscriminatorParameters()};
  if (adversarial) groups.push_back(model->GeneratorParameters());
  std::vector<MultiTaskEpochStats> history;
  MultiTaskEpochStats sums;
  auto step = [&](const data::ElemeBatch& batch, const GroupUpdate& update) {
    // --- D step: L_r^GMV + lambda1 * L_r^VpPV through the encoder. ---
    nn::Var group_vec = model->GroupVector(batch.user_group);
    nn::Var enc_vec = model->EncoderVector(batch.restaurant_profile,
                                           batch.restaurant_stats);
    nn::Var loss_gmv =
        nn::MseLoss(model->PredictGmv(enc_vec, group_vec), batch.gmv);
    nn::Var loss_vppv =
        nn::MseLoss(model->PredictVppv(enc_vec, group_vec), batch.vppv);
    update(kD, nn::Add(loss_gmv, nn::Scale(loss_vppv, lambda1)));
    sums.loss_gmv_d += loss_gmv.value().scalar();
    sums.loss_vppv_d += loss_vppv.value().scalar();
    if (!adversarial) return;

    // --- G step: L_g^GMV + lambda1 * L_g^VpPV + lambda2 * L_s. ---
    nn::Var group_vec_g = model->GroupVector(batch.user_group);
    nn::Var enc_vec_g = model->EncoderVector(batch.restaurant_profile,
                                             batch.restaurant_stats);
    nn::Var gen_vec = model->GeneratorVector(batch.restaurant_profile);
    nn::Var gen_gmv =
        nn::MseLoss(model->PredictGmv(gen_vec, group_vec_g), batch.gmv);
    nn::Var gen_vppv =
        nn::MseLoss(model->PredictVppv(gen_vec, group_vec_g), batch.vppv);
    nn::Var loss_s = model->SimilarityLoss(gen_vec, enc_vec_g);
    update(kG, nn::Add(nn::Add(gen_gmv, nn::Scale(gen_vppv, lambda1)),
                       nn::Scale(loss_s, lambda2)));
    sums.loss_gmv_g += gen_gmv.value().scalar();
    sums.loss_vppv_g += gen_vppv.value().scalar();
    sums.loss_s += loss_s.value().scalar();
  };
  auto end_epoch = [&](int64_t steps) -> EpochLosses {
    const double inv = 1.0 / static_cast<double>(steps);
    sums.loss_gmv_d *= inv;
    sums.loss_vppv_d *= inv;
    sums.loss_gmv_g *= inv;
    sums.loss_vppv_g *= inv;
    sums.loss_s *= inv;
    const MultiTaskEpochStats& stats =
        history.emplace_back(std::exchange(sums, {}));
    return {{"loss_gmv_d", stats.loss_gmv_d},
            {"loss_vppv_d", stats.loss_vppv_d},
            {"loss_gmv_g", stats.loss_gmv_g},
            {"loss_vppv_g", stats.loss_vppv_g},
            {"loss_s", stats.loss_s}};
  };
  RunEpochs<data::ElemeBatch>(
      dataset.train_indices, options,
      {.name = "mt-atnn",
       .groups = std::move(groups),
       .make_batch =
           [&dataset](std::span<const int64_t> rows) {
             return data::MakeElemeBatch(dataset, rows);
           },
       .step = step,
       .end_epoch = end_epoch});
  return history;
}

ElemeEval EvaluateEleme(const MultiTaskAtnnModel& model,
                        const data::ElemeDataset& dataset,
                        const std::vector<int64_t>& restaurant_rows,
                        int batch_size) {
  const size_t n = restaurant_rows.size();
  std::vector<double> vppv_pred(n);
  std::vector<double> gmv_pred(n);
  std::vector<float> vppv_true(n);
  std::vector<float> gmv_true(n);
  ForEachChunk(
      restaurant_rows, batch_size,
      [&](size_t first, std::span<const int64_t> chunk) {
        const data::ElemeBatch batch = MakeElemeBatch(dataset, chunk);
        const auto predictions =
            model.PredictColdStart(batch.restaurant_profile, batch.user_group);
        for (size_t r = 0; r < chunk.size(); ++r) {
          const auto row = static_cast<int64_t>(r);
          vppv_pred[first + r] = predictions.vppv[r];
          gmv_pred[first + r] = predictions.gmv[r];
          vppv_true[first + r] = batch.vppv.at(row, 0);
          gmv_true[first + r] = batch.gmv.at(row, 0);
        }
      });
  ElemeEval eval;
  eval.vppv_mae = metrics::MeanAbsoluteError(vppv_pred, vppv_true);
  eval.gmv_mae = metrics::MeanAbsoluteError(gmv_pred, gmv_true);
  return eval;
}

ElemeNormalizers NormalizeElemeInPlace(data::ElemeDataset* dataset) {
  ElemeNormalizers norms;
  // Fit on the trainside restaurants only (new applicants are the target
  // distribution of the online experiment and must not shape the scaler in
  // a way the deployed system could not have done — using the 80% train
  // rows mirrors production practice).
  std::vector<int64_t> fit_rows = dataset->train_indices;
  norms.profile =
      data::Normalizer::Fit(dataset->restaurant_profiles, fit_rows);
  norms.profile.Apply(&dataset->restaurant_profiles);
  norms.stats = data::Normalizer::Fit(dataset->restaurant_stats, fit_rows);
  norms.stats.Apply(&dataset->restaurant_stats);
  norms.group = data::Normalizer::Fit(dataset->user_groups);
  norms.group.Apply(&dataset->user_groups);
  return norms;
}

}  // namespace atnn::core
