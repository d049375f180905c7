#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"

namespace atnn::metrics {

double Auc(const std::vector<double>& scores,
           const std::vector<float>& labels) {
  ATNN_CHECK_EQ(scores.size(), labels.size());
  ATNN_CHECK(!scores.empty());

  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&scores](size_t a, size_t b) { return scores[a] < scores[b]; });

  // Sum of positive ranks with midranks for ties (Mann–Whitney U).
  double positive_rank_sum = 0.0;
  int64_t num_positive = 0;
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() &&
           scores[order[j + 1]] == scores[order[i]]) {
      ++j;
    }
    // Ranks are 1-based; tied block [i, j] gets the average rank.
    const double midrank = 0.5 * (static_cast<double>(i + 1) +
                                  static_cast<double>(j + 1));
    for (size_t t = i; t <= j; ++t) {
      if (labels[order[t]] > 0.5f) {
        positive_rank_sum += midrank;
        ++num_positive;
      }
    }
    i = j + 1;
  }
  const int64_t num_negative =
      static_cast<int64_t>(scores.size()) - num_positive;
  ATNN_CHECK(num_positive > 0 && num_negative > 0)
      << "AUC undefined: " << num_positive << " positives, " << num_negative
      << " negatives";
  const double u = positive_rank_sum -
                   static_cast<double>(num_positive) *
                       (static_cast<double>(num_positive) + 1.0) / 2.0;
  return u / (static_cast<double>(num_positive) *
              static_cast<double>(num_negative));
}

double MeanAbsoluteError(const std::vector<double>& predictions,
                         const std::vector<float>& targets) {
  ATNN_CHECK_EQ(predictions.size(), targets.size());
  ATNN_CHECK(!predictions.empty());
  double total = 0.0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    total += std::abs(predictions[i] - static_cast<double>(targets[i]));
  }
  return total / static_cast<double>(predictions.size());
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ATNN_CHECK_EQ(a.size(), b.size());
  ATNN_CHECK(!a.empty());
  const double n = static_cast<double>(a.size());
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= n;
  mean_b /= n;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

namespace {

/// Fractional (midrank) ranks of the values.
std::vector<double> FractionalRanks(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&values](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(values.size());
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() &&
           values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    const double midrank = 0.5 * (static_cast<double>(i + 1) +
                                  static_cast<double>(j + 1));
    for (size_t t = i; t <= j; ++t) ranks[order[t]] = midrank;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  return PearsonCorrelation(FractionalRanks(a), FractionalRanks(b));
}

std::vector<std::vector<int64_t>> RankGroups(
    const std::vector<double>& scores, int num_groups) {
  ATNN_CHECK(num_groups > 0);
  ATNN_CHECK(!scores.empty());
  std::vector<int64_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&scores](int64_t a, int64_t b) {
    return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
  });
  std::vector<std::vector<int64_t>> groups(static_cast<size_t>(num_groups));
  const size_t n = scores.size();
  for (size_t rank = 0; rank < n; ++rank) {
    const size_t group = std::min(
        static_cast<size_t>(num_groups) - 1,
        rank * static_cast<size_t>(num_groups) / n);
    groups[group].push_back(order[rank]);
  }
  return groups;
}

double MeanOver(const std::vector<double>& values,
                const std::vector<int64_t>& indices) {
  ATNN_CHECK(!indices.empty());
  double total = 0.0;
  for (int64_t idx : indices) total += values[static_cast<size_t>(idx)];
  return total / static_cast<double>(indices.size());
}

}  // namespace atnn::metrics
