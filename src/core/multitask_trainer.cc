#include "core/multitask_trainer.h"

#include "common/logging.h"
#include "common/prefetcher.h"
#include "common/rng.h"
#include "core/train_telemetry.h"
#include "metrics/metrics.h"
#include "nn/optimizer.h"
#include "obs/trace_span.h"

namespace atnn::core {

std::vector<MultiTaskEpochStats> TrainMultiTaskAtnn(
    MultiTaskAtnnModel* model, const data::ElemeDataset& dataset,
    const TrainOptions& options) {
  const Status options_valid = options.Validate();
  ATNN_CHECK(options_valid.ok())
      << "invalid TrainOptions: " << options_valid.ToString();
  if (dataset.train_indices.empty()) {
    ATNN_LOG(Warning) << "TrainMultiTaskAtnn: empty train split, nothing to "
                         "do; returning empty history";
    return {};
  }
  const bool adversarial = model->config().adversarial;
  nn::Adam optimizer_d(model->DiscriminatorParameters(),
                       options.learning_rate, 0.9f, 0.999f, 1e-8f,
                       options.weight_decay);
  std::unique_ptr<nn::Adam> optimizer_g;
  if (adversarial) {
    optimizer_g = std::make_unique<nn::Adam>(
        model->GeneratorParameters(), options.learning_rate, 0.9f, 0.999f,
        1e-8f, options.weight_decay);
  }
  const std::vector<nn::Parameter*> all_params = model->Parameters();
  const float lambda1 = model->config().lambda1;
  const float lambda2 = model->config().lambda2;

  Rng rng(options.seed);
  std::vector<int64_t> order = dataset.train_indices;
  std::vector<MultiTaskEpochStats> history;
  TrainTelemetry telemetry(options.metrics, options.emit_metric_lines);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const auto epoch_start = TrainTelemetry::Now();
    if (epoch > 0 && options.lr_decay_per_epoch != 1.0f) {
      optimizer_d.set_learning_rate(optimizer_d.learning_rate() *
                                    options.lr_decay_per_epoch);
      if (adversarial) {
        optimizer_g->set_learning_rate(optimizer_g->learning_rate() *
                                       options.lr_decay_per_epoch);
      }
    }
    rng.Shuffle(&order);
    // `order` is stable until the next epoch's shuffle, so the prefetcher
    // may gather batch t+1 from these views while batch t trains.
    const std::vector<std::span<const int64_t>> batches =
        MakeBatchSpans(order, options.batch_size);
    Prefetcher<data::ElemeBatch> batches_ahead(
        options.pool, batches.size(), [&dataset, &batches](size_t i) {
          return data::MakeElemeBatch(dataset, batches[i]);
        });
    MultiTaskEpochStats stats;
    int64_t steps = 0;
    while (batches_ahead.HasNext()) {
      const data::ElemeBatch batch = batches_ahead.Next();
      const obs::ScopedTimer step_timer(telemetry.step_sink());
      telemetry.RecordStep();
      // Step-scoped tensors come from the thread arena; one rewind per step.
      const nn::ArenaScope arena_scope;

      // --- D step: L_r^GMV + lambda1 * L_r^VpPV through the encoder. ---
      nn::ZeroAllGrads(all_params);
      nn::Var group_vec = model->GroupVector(batch.user_group);
      nn::Var enc_vec = model->EncoderVector(batch.restaurant_profile,
                                             batch.restaurant_stats);
      nn::Var loss_gmv =
          nn::MseLoss(model->PredictGmv(enc_vec, group_vec), batch.gmv);
      nn::Var loss_vppv =
          nn::MseLoss(model->PredictVppv(enc_vec, group_vec), batch.vppv);
      nn::Var loss_d = nn::Add(loss_gmv, nn::Scale(loss_vppv, lambda1));
      nn::Backward(loss_d);
      if (options.clip_norm > 0.0f) {
        optimizer_d.ClipGradNorm(options.clip_norm);
      }
      optimizer_d.Step();
      stats.loss_gmv_d += loss_gmv.value().scalar();
      stats.loss_vppv_d += loss_vppv.value().scalar();

      // --- G step: L_g^GMV + lambda1 * L_g^VpPV + lambda2 * L_s. ---
      if (adversarial) {
        nn::ZeroAllGrads(all_params);
        nn::Var group_vec_g = model->GroupVector(batch.user_group);
        nn::Var enc_vec_g = model->EncoderVector(batch.restaurant_profile,
                                                 batch.restaurant_stats);
        nn::Var gen_vec = model->GeneratorVector(batch.restaurant_profile);
        nn::Var gen_gmv =
            nn::MseLoss(model->PredictGmv(gen_vec, group_vec_g), batch.gmv);
        nn::Var gen_vppv =
            nn::MseLoss(model->PredictVppv(gen_vec, group_vec_g), batch.vppv);
        nn::Var loss_s = model->SimilarityLoss(gen_vec, enc_vec_g);
        nn::Var loss_g =
            nn::Add(nn::Add(gen_gmv, nn::Scale(gen_vppv, lambda1)),
                    nn::Scale(loss_s, lambda2));
        nn::Backward(loss_g);
        if (options.clip_norm > 0.0f) {
          optimizer_g->ClipGradNorm(options.clip_norm);
        }
        optimizer_g->Step();
        stats.loss_gmv_g += gen_gmv.value().scalar();
        stats.loss_vppv_g += gen_vppv.value().scalar();
        stats.loss_s += loss_s.value().scalar();
      }
      ++steps;
    }
    const double inv = 1.0 / static_cast<double>(steps);
    stats.loss_gmv_d *= inv;
    stats.loss_vppv_d *= inv;
    stats.loss_gmv_g *= inv;
    stats.loss_vppv_g *= inv;
    stats.loss_s *= inv;
    history.push_back(stats);
    telemetry.EndEpoch(epoch, TrainTelemetry::MsSince(epoch_start),
                       {{"loss_gmv_d", stats.loss_gmv_d},
                        {"loss_vppv_d", stats.loss_vppv_d},
                        {"loss_gmv_g", stats.loss_gmv_g},
                        {"loss_vppv_g", stats.loss_vppv_g},
                        {"loss_s", stats.loss_s}});
    if (options.verbose) {
      ATNN_LOG(Info) << "mt-atnn epoch " << epoch + 1 << "/" << options.epochs
                     << " L_gmv=" << stats.loss_gmv_d
                     << " L_vppv=" << stats.loss_vppv_d
                     << " L_s=" << stats.loss_s;
    }
  }
  return history;
}

ElemeEval EvaluateEleme(const MultiTaskAtnnModel& model,
                        const data::ElemeDataset& dataset,
                        const std::vector<int64_t>& restaurant_rows,
                        int batch_size, ThreadPool* pool) {
  struct ChunkResult {
    std::vector<double> vppv_pred;
    std::vector<double> gmv_pred;
    std::vector<float> vppv_true;
    std::vector<float> gmv_true;
  };
  const std::vector<std::span<const int64_t>> chunks =
      MakeBatchSpans(restaurant_rows, batch_size);
  std::vector<ChunkResult> results(chunks.size());
  auto score_chunk = [&](size_t i) {
    const nn::NoGradGuard no_grad;
    const nn::ArenaScope arena_scope;
    const data::ElemeBatch batch = MakeElemeBatch(dataset, chunks[i]);
    const auto predictions =
        model.PredictColdStart(batch.restaurant_profile, batch.user_group);
    ChunkResult& out = results[i];
    out.vppv_pred = predictions.vppv;
    out.gmv_pred = predictions.gmv;
    out.vppv_true.reserve(static_cast<size_t>(batch.vppv.rows()));
    out.gmv_true.reserve(static_cast<size_t>(batch.gmv.rows()));
    for (int64_t r = 0; r < batch.vppv.rows(); ++r) {
      out.vppv_true.push_back(batch.vppv.at(r, 0));
      out.gmv_true.push_back(batch.gmv.at(r, 0));
    }
  };
  if (pool != nullptr && chunks.size() > 1) {
    pool->ParallelFor(chunks.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) score_chunk(i);
    });
  } else {
    for (size_t i = 0; i < chunks.size(); ++i) score_chunk(i);
  }
  std::vector<double> vppv_pred;
  std::vector<double> gmv_pred;
  std::vector<float> vppv_true;
  std::vector<float> gmv_true;
  for (ChunkResult& chunk : results) {
    vppv_pred.insert(vppv_pred.end(), chunk.vppv_pred.begin(),
                     chunk.vppv_pred.end());
    gmv_pred.insert(gmv_pred.end(), chunk.gmv_pred.begin(),
                    chunk.gmv_pred.end());
    vppv_true.insert(vppv_true.end(), chunk.vppv_true.begin(),
                     chunk.vppv_true.end());
    gmv_true.insert(gmv_true.end(), chunk.gmv_true.begin(),
                    chunk.gmv_true.end());
  }
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
