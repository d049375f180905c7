#ifndef ATNN_CORE_MULTITASK_TRAINER_H_
#define ATNN_CORE_MULTITASK_TRAINER_H_

#include <vector>

#include "core/multitask_atnn.h"
#include "core/trainer.h"
#include "data/eleme.h"
#include "data/normalize.h"

namespace atnn::core {

/// Per-epoch averages of the Algorithm 2 losses (generator entries are 0
/// for the non-adversarial baseline).
struct MultiTaskEpochStats {
  double loss_gmv_d = 0.0;
  double loss_vppv_d = 0.0;
  double loss_gmv_g = 0.0;
  double loss_vppv_g = 0.0;
  double loss_s = 0.0;
};

/// Trains the extended ATNN per Algorithm 2 (D step then G step per batch);
/// for adversarial=false configurations, only the D step runs.
/// An empty train split returns an empty history (no NaN epoch rows).
std::vector<MultiTaskEpochStats> TrainMultiTaskAtnn(
    MultiTaskAtnnModel* model, const data::ElemeDataset& dataset,
    const TrainOptions& options);

/// Cold-start regression quality on the given trainside restaurant rows.
struct ElemeEval {
  double vppv_mae = 0.0;
  double gmv_mae = 0.0;
};
/// Forwards run in no-grad mode, chunk by chunk in order.
ElemeEval EvaluateEleme(const MultiTaskAtnnModel& model,
                        const data::ElemeDataset& dataset,
                        const std::vector<int64_t>& restaurant_rows,
                        int batch_size = 1024);

/// Normalizers for the Ele.me tables, fit on training restaurants only.
struct ElemeNormalizers {
  data::Normalizer profile;
  data::Normalizer stats;
  data::Normalizer group;
};

/// Standardizes the dataset's numeric columns in place (call once).
ElemeNormalizers NormalizeElemeInPlace(data::ElemeDataset* dataset);

}  // namespace atnn::core

#endif  // ATNN_CORE_MULTITASK_TRAINER_H_
