#ifndef ATNN_CORE_USER_CLUSTERS_H_
#define ATNN_CORE_USER_CLUSTERS_H_

#include <cstdint>
#include <vector>

#include "core/atnn.h"
#include "core/popularity.h"
#include "data/tmall.h"
#include "nn/tensor.h"

namespace atnn::core {

/// Lloyd's k-means with k-means++ seeding over the rows of a matrix.
/// Deterministic in the seed. The substrate for the paper's future-work
/// item: "further group users by their preferences before making new
/// arrivals predictions".
struct KMeansResult {
  nn::Tensor centroids;                 // [k, dim]
  std::vector<int32_t> assignment;      // [rows] -> cluster id
  std::vector<int64_t> cluster_sizes;   // [k]
  double inertia = 0.0;                 // sum of squared distances
  int iterations = 0;
};

struct KMeansConfig {
  int num_clusters = 8;
  uint64_t seed = 613;
};

/// Runs k-means over the rows of `points` ([n, dim], n >= k): at most 50
/// Lloyd iterations, stopping early once an iteration improves the inertia
/// by less than 1e-4 of its previous value.
KMeansResult RunKMeans(const nn::Tensor& points, const KMeansConfig& config);

/// Preference-clustered popularity predictor: instead of one global mean
/// user vector, the user group is split into K preference clusters (by
/// k-means over the trained user vectors); an item's popularity is the
/// cluster-size-weighted mean of its per-cluster scores:
///   score(i) = sum_c (|c| / N) * sigmoid(<g(X_ip), mean_c> + b)
/// O(K) per item — still independent of the user count — and strictly more
/// expressive than the single-group predictor (K = 1 recovers it).
class ClusteredPopularityPredictor {
 public:
  /// Computes user vectors for `user_group` through the model's user
  /// tower, clusters them, and stores the per-cluster means.
  static ClusteredPopularityPredictor Build(
      const AtnnModel& model, const data::TmallDataset& dataset,
      const std::vector<int64_t>& user_group, const KMeansConfig& config,
      int batch_size = 1024);

  /// O(K) popularity score of one generated item vector.
  double ScoreVector(const float* item_vector, int64_t dim) const;

  /// Scores item rows via the generator path.
  std::vector<double> ScoreItems(const AtnnModel& model,
                                 const data::TmallDataset& dataset,
                                 const std::vector<int64_t>& item_rows,
                                 int batch_size = 1024) const;

  int num_clusters() const { return static_cast<int>(weights_.size()); }
  const nn::Tensor& cluster_means() const { return cluster_means_; }
  const std::vector<double>& cluster_weights() const { return weights_; }

 private:
  ClusteredPopularityPredictor(nn::Tensor cluster_means,
                               std::vector<double> weights, float bias);

  nn::Tensor cluster_means_;     // [k, d]
  std::vector<double> weights_;  // [k], sums to 1
  float bias_ = 0.0f;
};

}  // namespace atnn::core

#endif  // ATNN_CORE_USER_CLUSTERS_H_
