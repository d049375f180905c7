#include "core/popularity.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>
#include <utility>

#include "core/trainer.h"

namespace atnn::core {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

nn::Tensor GroupUserVectors(const AtnnModel& model,
                            const data::TmallDataset& dataset,
                            const std::vector<int64_t>& user_group,
                            int batch_size) {
  nn::Tensor user_vectors(static_cast<int64_t>(user_group.size()),
                          model.vector_dim());
  ForEachChunk(user_group, batch_size,
               [&](size_t first, std::span<const int64_t> chunk) {
                 const nn::Var vectors =
                     model.UserVector(data::GatherBlock(dataset.users, chunk));
                 const nn::Tensor& values = vectors.value();
                 std::copy(values.data(), values.data() + values.numel(),
                           user_vectors.row_ptr(static_cast<int64_t>(first)));
               });
  return user_vectors;
}

PopularityPredictor::PopularityPredictor(nn::Tensor mean_user_vector,
                                         float bias)
    : mean_user_vector_(std::move(mean_user_vector)), bias_(bias) {
  ATNN_CHECK_EQ(mean_user_vector_.rows(), 1);
}

PopularityPredictor PopularityPredictor::Build(
    const AtnnModel& model, const data::TmallDataset& dataset,
    const std::vector<int64_t>& user_group, int batch_size) {
  ATNN_CHECK(!user_group.empty());
  ATNN_CHECK(batch_size > 0);
  // Per-chunk partial sums, added in chunk order below. A running sum over
  // every row would change the bits of every stored mean user vector.
  std::vector<nn::Tensor> partial((user_group.size() + batch_size - 1) /
                                  static_cast<size_t>(batch_size));
  ForEachChunk(user_group, batch_size,
               [&](size_t first, std::span<const int64_t> chunk) {
                 const nn::Var vectors =
                     model.UserVector(data::GatherBlock(dataset.users, chunk));
                 nn::Tensor sum(1, model.vector_dim());
                 float* dst = sum.data();
                 for (int64_t r = 0; r < vectors.rows(); ++r) {
                   const float* row = vectors.value().row_ptr(r);
                   for (int64_t c = 0; c < sum.cols(); ++c) dst[c] += row[c];
                 }
                 partial[first / static_cast<size_t>(batch_size)] =
                     std::move(sum);
               });
  nn::Tensor sum(1, model.vector_dim());
  for (const nn::Tensor& chunk_sum : partial) sum.AddInPlace(chunk_sum);
  sum.Scale(1.0f / static_cast<float>(user_group.size()));
  return PopularityPredictor(std::move(sum), model.generator_bias_value());
}

double PopularityPredictor::ScoreVector(const float* item_vector,
                                        int64_t dim) const {
  ATNN_DCHECK_EQ(dim, mean_user_vector_.cols());
  const float* mean = mean_user_vector_.data();
  double dot = 0.0;
  for (int64_t c = 0; c < dim; ++c) dot += item_vector[c] * mean[c];
  return Sigmoid(dot + bias_);
}

std::vector<double> PopularityPredictor::ScoreItems(
    const AtnnModel& model, const data::TmallDataset& dataset,
    const std::vector<int64_t>& item_rows, int batch_size) const {
  return ScoreGeneratedItems(
      model, dataset, item_rows, batch_size,
      std::bind_front(&PopularityPredictor::ScoreVector, this));
}

std::vector<double> ScoreGeneratedItems(
    const AtnnModel& model, const data::TmallDataset& dataset,
    const std::vector<int64_t>& item_rows, int batch_size,
    const std::function<double(const float*, int64_t)>& score_vector) {
  return ScoreChunks(
      item_rows, batch_size, [&](std::span<const int64_t> chunk) {
        const nn::Var vectors = model.GeneratorItemVector(
            data::GatherBlock(dataset.item_profiles, chunk));
        std::vector<double> scores;
        scores.reserve(static_cast<size_t>(vectors.rows()));
        for (int64_t r = 0; r < vectors.rows(); ++r) {
          scores.push_back(
              score_vector(vectors.value().row_ptr(r), vectors.cols()));
        }
        return scores;
      });
}

std::vector<double> ScoreItemsPairwise(const AtnnModel& model,
                                       const data::TmallDataset& dataset,
                                       const std::vector<int64_t>& item_rows,
                                       const std::vector<int64_t>& user_group,
                                       int batch_size) {
  ATNN_CHECK(!user_group.empty());
  // Precompute all user vectors once (amortized across items); the cost
  // that remains per item is still O(|user_group|) dot products.
  const nn::Tensor user_vectors =
      GroupUserVectors(model, dataset, user_group, batch_size);
  const float gen_bias = model.generator_bias_value();
  return ScoreGeneratedItems(
      model, dataset, item_rows, batch_size,
      [&](const float* item_vec, int64_t) {
        double total = 0.0;
        for (int64_t u = 0; u < user_vectors.rows(); ++u) {
          const float* user_vec = user_vectors.row_ptr(u);
          double dot = 0.0;
          for (int64_t c = 0; c < user_vectors.cols(); ++c) {
            dot += item_vec[c] * user_vec[c];
          }
          total += Sigmoid(dot + gen_bias);
        }
        return total / static_cast<double>(user_vectors.rows());
      });
}

std::vector<int64_t> SelectActiveUsers(const data::TmallDataset& dataset,
                                       int64_t k) {
  ATNN_CHECK(k > 0);
  std::vector<int64_t> users(dataset.user_activity.size());
  std::iota(users.begin(), users.end(), 0);
  const auto take = std::min<size_t>(static_cast<size_t>(k), users.size());
  std::partial_sort(users.begin(), users.begin() + take, users.end(),
                    [&dataset](int64_t a, int64_t b) {
                      return dataset.user_activity[static_cast<size_t>(a)] >
                             dataset.user_activity[static_cast<size_t>(b)];
                    });
  users.resize(take);
  return users;
}

}  // namespace atnn::core
