#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "core/epoch_loop.h"
#include "metrics/metrics.h"
#include "nn/arena.h"
#include "nn/autograd.h"

namespace atnn::core {

Status TrainOptions::Validate() const {
  if (epochs <= 0) {
    return Status::InvalidArgument("epochs must be >= 1");
  }
  if (batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (!std::isfinite(learning_rate) || learning_rate <= 0.0f) {
    return Status::InvalidArgument("learning_rate must be finite and > 0");
  }
  if (cross_batch_negatives && negative_cache == nullptr) {
    return Status::InvalidArgument(
        "cross_batch_negatives requires a negative_cache");
  }
  return Status::OK();
}

std::vector<std::span<const int64_t>> MakeBatchSpans(
    std::span<const int64_t> indices, int batch_size) {
  ATNN_CHECK(batch_size > 0);
  const auto step = static_cast<size_t>(batch_size);
  std::vector<std::span<const int64_t>> batches;
  batches.reserve((indices.size() + step - 1) / step);
  for (size_t begin = 0; begin < indices.size(); begin += step) {
    batches.push_back(
        indices.subspan(begin, std::min(step, indices.size() - begin)));
  }
  return batches;
}

void ForEachChunk(
    std::span<const int64_t> rows, int batch_size,
    const std::function<void(size_t, std::span<const int64_t>)>& fn) {
  const std::vector<std::span<const int64_t>> chunks =
      MakeBatchSpans(rows, batch_size);
  for (size_t i = 0; i < chunks.size(); ++i) {
    const nn::NoGradGuard no_grad;
    const nn::ArenaScope arena_scope;  // per-chunk tensors, freed at once
    fn(i * static_cast<size_t>(batch_size), chunks[i]);
  }
}

std::vector<double> ScoreChunks(
    std::span<const int64_t> rows, int batch_size,
    const std::function<std::vector<double>(std::span<const int64_t>)>&
        score) {
  std::vector<double> scores(rows.size());
  ForEachChunk(rows, batch_size,
               [&](size_t first, std::span<const int64_t> chunk) {
                 const std::vector<double> chunk_scores = score(chunk);
                 ATNN_CHECK_EQ(chunk_scores.size(), chunk.size());
                 std::copy(chunk_scores.begin(), chunk_scores.end(),
                           scores.begin() + static_cast<std::ptrdiff_t>(first));
               });
  return scores;
}

std::vector<float> GatherLabels(const data::TmallDataset& dataset,
                                std::span<const int64_t> indices) {
  std::vector<float> labels;
  labels.reserve(indices.size());
  for (int64_t idx : indices) {
    labels.push_back(dataset.labels[static_cast<size_t>(idx)]);
  }
  return labels;
}

std::vector<EpochStats> TrainTwoTowerModel(TwoTowerModel* model,
                                           const data::TmallDataset& dataset,
                                           const TrainOptions& options) {
  std::vector<EpochStats> history;
  EpochStats sums;
  RunEpochs<data::CtrBatch>(
      dataset.train_indices, options,
      {.name = "two-tower",
       .groups = {model->Parameters()},
       .make_batch =
           [&dataset](std::span<const int64_t> rows) {
             return data::MakeCtrBatch(dataset, rows);
           },
       .step =
           [&](const data::CtrBatch& batch, const GroupUpdate& update) {
             nn::Var logits = model->ScoreLogits(
                 model->ItemVector(batch.item_profile, batch.item_stats),
                 model->UserVector(batch.user));
             nn::Var loss = nn::SigmoidBceLossWithLogits(logits, batch.labels);
             update(0, loss);
             sums.loss_i += loss.value().scalar();
           },
       .end_epoch =
           [&](int64_t steps) -> EpochLosses {
             sums.loss_i /= static_cast<double>(steps);
             return {{"loss_i",
                      history.emplace_back(std::exchange(sums, {})).loss_i}};
           }});
  return history;
}

std::vector<EpochStats> TrainAtnnModel(AtnnModel* model,
                                       const data::TmallDataset& dataset,
                                       const TrainOptions& options) {
  return TrainAtnnOnIndices(model, dataset, dataset.train_indices, options);
}

std::vector<EpochStats> TrainAtnnOnIndices(AtnnModel* model,
                                           const data::TmallDataset& dataset,
                                           std::span<const int64_t> indices,
                                           const TrainOptions& options) {
  constexpr size_t kD = 0;
  constexpr size_t kG = 1;
  // Weight of the cached-negative BCE term in the D-step objective.
  constexpr float kNegativeWeight = 0.1f;
  std::vector<EpochStats> history;
  EpochStats sums;
  int64_t steps_d = 0;
  int64_t steps_g = 0;
  // Global step counter across epochs — the one-backprop alternation must
  // not reset at epoch boundaries or odd-step-count epochs would starve
  // one tower.
  int64_t global_step = 0;
  auto step = [&](const data::CtrBatch& batch, const GroupUpdate& update) {
    // One-backprop alternation: with the switch on, each batch runs a
    // single half-step (even global steps train D, odd train G); off,
    // both run — the historical Algorithm 1 schedule.
    const bool run_d = !options.one_backprop || global_step % 2 == 0;
    const bool run_g = !options.one_backprop || global_step % 2 == 1;
    ++global_step;

    if (run_d) {
      // --- D step: minimize L_i through the encoder path. ---
      nn::Var user_vec = model->UserVector(batch.user);
      nn::Var enc_vec =
          model->EncoderItemVector(batch.item_profile, batch.item_stats);
      nn::Var loss_i = nn::SigmoidBceLossWithLogits(
          model->EncoderLogits(enc_vec, user_vec), batch.labels);
      nn::Var d_objective = loss_i;
      if (options.cross_batch_negatives &&
          options.negative_cache->total_rows() > 0) {
        // CBNS: the cached generated vectors of recent batches act as
        // extra label-0 impressions against this batch's users. The
        // cached side enters as a constant, so the gradient reshapes
        // only the user tower — the tower this half-step owns; the
        // cache itself is refreshed by the G step below. loss_i (the
        // reported stat) stays the pure CTR log loss.
        nn::Var neg_logits = nn::MatMul(
            user_vec,
            nn::Constant(options.negative_cache->GatherTransposed()));
        nn::Var loss_neg = nn::SigmoidBceLossWithLogits(
            neg_logits,
            nn::Tensor::Zeros(batch.labels.rows(),
                              options.negative_cache->total_rows()));
        d_objective = nn::Add(loss_i, nn::Scale(loss_neg, kNegativeWeight));
      }
      update(kD, d_objective);
      sums.loss_i += loss_i.value().scalar();
      ++steps_d;
    }

    if (run_g) {
      // --- G step: minimize L_g + lambda * L_s. ---
      // Recompute with updated discriminator weights; the user vector and
      // encoder target are treated as fixed inputs in this half-step.
      nn::Var user_vec_g = model->UserVector(batch.user);
      nn::Var enc_vec_g =
          model->EncoderItemVector(batch.item_profile, batch.item_stats);
      nn::Var gen_vec = model->GeneratorItemVector(batch.item_profile);
      nn::Var loss_g = nn::SigmoidBceLossWithLogits(
          model->GeneratorLogits(gen_vec, user_vec_g), batch.labels);
      nn::Var loss_s = model->SimilarityLoss(gen_vec, enc_vec_g);
      update(kG, nn::Add(loss_g, nn::Scale(loss_s, model->config().lambda)));
      if (options.cross_batch_negatives) {
        // Detach and enqueue this batch's generated vectors for future
        // steps (the cache copies to the heap; gen_vec itself is
        // arena-scoped).
        options.negative_cache->Push(gen_vec.value());
      }
      sums.loss_g += loss_g.value().scalar();
      sums.loss_s += loss_s.value().scalar();
      ++steps_g;
    }
  };
  auto end_epoch = [&](int64_t) -> EpochLosses {
    // With one_backprop each loss averages over the half-steps that
    // actually ran; with it off, steps_d == steps_g == the batch count and
    // the arithmetic is bit-for-bit the historical division.
    if (steps_d > 0) sums.loss_i /= static_cast<double>(steps_d);
    if (steps_g > 0) {
      sums.loss_g /= static_cast<double>(steps_g);
      sums.loss_s /= static_cast<double>(steps_g);
    }
    steps_d = steps_g = 0;
    const EpochStats& stats = history.emplace_back(std::exchange(sums, {}));
    return {{"loss_i", stats.loss_i},
            {"loss_g", stats.loss_g},
            {"loss_s", stats.loss_s}};
  };
  // Two optimizers over the discriminator and generator parameter groups,
  // per Algorithm 1.
  RunEpochs<data::CtrBatch>(
      indices, options,
      {.name = "atnn",
       .groups = {model->DiscriminatorParameters(),
                  model->GeneratorParameters()},
       .make_batch =
           [&dataset](std::span<const int64_t> rows) {
             return data::MakeCtrBatch(dataset, rows);
           },
       .step = step,
       .end_epoch = end_epoch});
  return history;
}

namespace {

/// AUC over `indices` of predict(batch), scored in ScoreChunks chunks.
double ChunkedCtrAuc(
    const data::TmallDataset& dataset, const std::vector<int64_t>& indices,
    int batch_size,
    const std::function<std::vector<double>(data::CtrBatch*)>& predict) {
  return metrics::Auc(
      ScoreChunks(indices, batch_size,
                  [&](std::span<const int64_t> chunk) {
                    data::CtrBatch batch = data::MakeCtrBatch(dataset, chunk);
                    return predict(&batch);
                  }),
      GatherLabels(dataset, indices));
}

}  // namespace

double EvaluateTwoTowerAuc(const TwoTowerModel& model,
                           const data::TmallDataset& dataset,
                           const std::vector<int64_t>& interaction_indices,
                           int batch_size) {
  return ChunkedCtrAuc(dataset, interaction_indices, batch_size,
                       [&model](data::CtrBatch* batch) {
                         return model.PredictCtr(batch->user,
                                                 batch->item_profile,
                                                 batch->item_stats);
                       });
}

void MaskStatsAsMissing(data::BlockBatch* stats) {
  // Standardized columns: the train mean is exactly zero.
  stats->numeric.SetZero();
}

double EvaluateTwoTowerAucMissingStats(
    const TwoTowerModel& model, const data::TmallDataset& dataset,
    const std::vector<int64_t>& interaction_indices, int batch_size) {
  return ChunkedCtrAuc(dataset, interaction_indices, batch_size,
                       [&model](data::CtrBatch* batch) {
                         MaskStatsAsMissing(&batch->item_stats);
                         return model.PredictCtr(batch->user,
                                                 batch->item_profile,
                                                 batch->item_stats);
                       });
}

double EvaluateAtnnAuc(const AtnnModel& model,
                       const data::TmallDataset& dataset,
                       const std::vector<int64_t>& interaction_indices,
                       CtrPath path, int batch_size) {
  return ChunkedCtrAuc(
      dataset, interaction_indices, batch_size,
      [&model, path](data::CtrBatch* batch) {
        return path == CtrPath::kEncoder
                   ? model.PredictCtrEncoder(batch->user, batch->item_profile,
                                             batch->item_stats)
                   : model.PredictCtrGenerator(batch->user,
                                               batch->item_profile);
      });
}

}  // namespace atnn::core
