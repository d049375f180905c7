#include "core/user_clusters.h"

#include <cmath>
#include <functional>
#include <limits>

#include "common/rng.h"

namespace atnn::core {

namespace {

/// Lloyd's iteration cap, and the relative inertia improvement below which
/// the iterations stop early.
constexpr int kMaxIterations = 50;
constexpr double kTolerance = 1e-4;

double SquaredDistance(const float* a, const float* b, int64_t dim) {
  double total = 0.0;
  for (int64_t c = 0; c < dim; ++c) {
    const double diff = static_cast<double>(a[c]) - b[c];
    total += diff * diff;
  }
  return total;
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

KMeansResult RunKMeans(const nn::Tensor& points, const KMeansConfig& config) {
  const int64_t n = points.rows();
  const int64_t dim = points.cols();
  const int k = config.num_clusters;
  ATNN_CHECK(k >= 1);
  ATNN_CHECK(n >= k) << "need at least k points";

  Rng rng(config.seed);
  KMeansResult result;
  result.centroids = nn::Tensor(k, dim);

  // --- k-means++ seeding ---
  std::vector<double> min_distance(static_cast<size_t>(n),
                                   std::numeric_limits<double>::max());
  {
    const auto first = static_cast<int64_t>(rng.UniformInt(uint64_t(n)));
    std::copy(points.row_ptr(first), points.row_ptr(first) + dim,
              result.centroids.row_ptr(0));
    for (int c = 1; c < k; ++c) {
      // Update distances to the nearest chosen centroid.
      for (int64_t i = 0; i < n; ++i) {
        const double d = SquaredDistance(
            points.row_ptr(i), result.centroids.row_ptr(c - 1), dim);
        min_distance[static_cast<size_t>(i)] =
            std::min(min_distance[static_cast<size_t>(i)], d);
      }
      double total_distance = 0.0;
      for (double d : min_distance) total_distance += d;
      // All-identical points: fall back to uniform choice.
      const size_t chosen =
          total_distance > 0.0
              ? rng.Categorical(min_distance)
              : static_cast<size_t>(rng.UniformInt(uint64_t(n)));
      std::copy(points.row_ptr(static_cast<int64_t>(chosen)),
                points.row_ptr(static_cast<int64_t>(chosen)) + dim,
                result.centroids.row_ptr(c));
    }
  }

  // --- Lloyd iterations ---
  result.assignment.assign(static_cast<size_t>(n), 0);
  result.cluster_sizes.assign(static_cast<size_t>(k), 0);
  double previous_inertia = std::numeric_limits<double>::max();
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    // Assign.
    double inertia = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int32_t best_cluster = 0;
      for (int c = 0; c < k; ++c) {
        const double d = SquaredDistance(points.row_ptr(i),
                                         result.centroids.row_ptr(c), dim);
        if (d < best) {
          best = d;
          best_cluster = c;
        }
      }
      result.assignment[static_cast<size_t>(i)] = best_cluster;
      inertia += best;
    }
    result.inertia = inertia;
    result.iterations = iter + 1;

    // Update.
    result.centroids.SetZero();
    std::fill(result.cluster_sizes.begin(), result.cluster_sizes.end(), 0);
    for (int64_t i = 0; i < n; ++i) {
      const int32_t c = result.assignment[static_cast<size_t>(i)];
      ++result.cluster_sizes[static_cast<size_t>(c)];
      float* centroid = result.centroids.row_ptr(c);
      const float* point = points.row_ptr(i);
      for (int64_t d = 0; d < dim; ++d) centroid[d] += point[d];
    }
    for (int c = 0; c < k; ++c) {
      const int64_t size = result.cluster_sizes[static_cast<size_t>(c)];
      if (size > 0) {
        float* centroid = result.centroids.row_ptr(c);
        for (int64_t d = 0; d < dim; ++d) {
          centroid[d] /= static_cast<float>(size);
        }
      } else {
        // Re-seed empty clusters at a random point.
        const auto pick = static_cast<int64_t>(rng.UniformInt(uint64_t(n)));
        std::copy(points.row_ptr(pick), points.row_ptr(pick) + dim,
                  result.centroids.row_ptr(c));
      }
    }

    if (previous_inertia - inertia <
        kTolerance * std::max(previous_inertia, 1e-12)) {
      break;
    }
    previous_inertia = inertia;
  }
  return result;
}

ClusteredPopularityPredictor::ClusteredPopularityPredictor(
    nn::Tensor cluster_means, std::vector<double> weights, float bias)
    : cluster_means_(std::move(cluster_means)),
      weights_(std::move(weights)),
      bias_(bias) {}

ClusteredPopularityPredictor ClusteredPopularityPredictor::Build(
    const AtnnModel& model, const data::TmallDataset& dataset,
    const std::vector<int64_t>& user_group, const KMeansConfig& config,
    int batch_size) {
  ATNN_CHECK(!user_group.empty());
  const nn::Tensor user_vectors =
      GroupUserVectors(model, dataset, user_group, batch_size);

  const KMeansResult clusters = RunKMeans(user_vectors, config);
  std::vector<double> weights(clusters.cluster_sizes.size());
  for (size_t c = 0; c < weights.size(); ++c) {
    weights[c] = static_cast<double>(clusters.cluster_sizes[c]) /
                 static_cast<double>(user_group.size());
  }
  return ClusteredPopularityPredictor(clusters.centroids, std::move(weights),
                                      model.generator_bias_value());
}

double ClusteredPopularityPredictor::ScoreVector(const float* item_vector,
                                                 int64_t dim) const {
  ATNN_DCHECK_EQ(dim, cluster_means_.cols());
  double total = 0.0;
  for (int c = 0; c < num_clusters(); ++c) {
    const float* mean = cluster_means_.row_ptr(c);
    double dot = 0.0;
    for (int64_t d = 0; d < dim; ++d) dot += item_vector[d] * mean[d];
    total += weights_[static_cast<size_t>(c)] * Sigmoid(dot + bias_);
  }
  return total;
}

std::vector<double> ClusteredPopularityPredictor::ScoreItems(
    const AtnnModel& model, const data::TmallDataset& dataset,
    const std::vector<int64_t>& item_rows, int batch_size) const {
  return ScoreGeneratedItems(
      model, dataset, item_rows, batch_size,
      std::bind_front(&ClusteredPopularityPredictor::ScoreVector, this));
}

}  // namespace atnn::core
