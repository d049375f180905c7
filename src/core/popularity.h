#ifndef ATNN_CORE_POPULARITY_H_
#define ATNN_CORE_POPULARITY_H_

#include <functional>
#include <vector>

#include "core/atnn.h"
#include "data/tmall.h"

namespace atnn::core {

/// The paper's O(1)-per-item popularity predictor (Section III-D): at
/// training time, compute and store the mean user vector of a selected
/// active-user group; at prediction time, score a new arrival as
/// sigmoid(<g(X_ip), mean_user_vec> + b) — one dot product per item instead
/// of one per (item, user) pair.
class PopularityPredictor {
 public:
  /// Computes the mean user vector of `user_group` (user rows) through the
  /// model's user tower, in batches. Forwards run in no-grad mode; each
  /// chunk sums its own rows, and the chunk sums are added in chunk order
  /// (the float summation order is fixed by batch_size).
  static PopularityPredictor Build(const AtnnModel& model,
                                   const data::TmallDataset& dataset,
                                   const std::vector<int64_t>& user_group,
                                   int batch_size = 1024);

  /// Constructs directly from a stored mean vector + bias (serving path).
  PopularityPredictor(nn::Tensor mean_user_vector, float bias);

  /// O(1) popularity score of one generated item vector ([1, d] row).
  double ScoreVector(const float* item_vector, int64_t dim) const;

  /// Scores the given item rows via the generator path. Cost: one
  /// generator forward per batch plus one dot product per item. No-grad.
  std::vector<double> ScoreItems(const AtnnModel& model,
                                 const data::TmallDataset& dataset,
                                 const std::vector<int64_t>& item_rows,
                                 int batch_size = 1024) const;

  const nn::Tensor& mean_user_vector() const { return mean_user_vector_; }
  float bias() const { return bias_; }

 private:
  nn::Tensor mean_user_vector_;  // [1, d]
  float bias_ = 0.0f;
};

/// The quadratic reference the paper argues against: an item's popularity
/// as the *exact* mean click probability over the user group, O(N_users)
/// per item. Used by tests (agreement with the O(1) path) and by
/// bench_scoring_complexity.
std::vector<double> ScoreItemsPairwise(const AtnnModel& model,
                                       const data::TmallDataset& dataset,
                                       const std::vector<int64_t>& item_rows,
                                       const std::vector<int64_t>& user_group,
                                       int batch_size = 1024);

/// The user-tower vectors of `user_group` ([|user_group|, d], one row per
/// user), computed through ForEachChunk in chunks of batch_size.
nn::Tensor GroupUserVectors(const AtnnModel& model,
                            const data::TmallDataset& dataset,
                            const std::vector<int64_t>& user_group,
                            int batch_size);

/// One score per item row: the generator vector of each row, computed
/// through ScoreChunks, mapped by score_vector(vector, dim). The shared
/// body of every ScoreItems variant.
std::vector<double> ScoreGeneratedItems(
    const AtnnModel& model, const data::TmallDataset& dataset,
    const std::vector<int64_t>& item_rows, int batch_size,
    const std::function<double(const float*, int64_t)>& score_vector);

/// Selects the top-k most active users — the paper's "top 20 million
/// active users who prefer new arrivals" device, scaled down.
std::vector<int64_t> SelectActiveUsers(const data::TmallDataset& dataset,
                                       int64_t k);

}  // namespace atnn::core

#endif  // ATNN_CORE_POPULARITY_H_
