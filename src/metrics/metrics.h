#ifndef ATNN_METRICS_METRICS_H_
#define ATNN_METRICS_METRICS_H_

#include <cstdint>
#include <vector>

namespace atnn::metrics {

/// Area under the ROC curve via the rank statistic, with proper handling of
/// tied scores (ties contribute 0.5). Labels must be 0/1 with at least one
/// of each; scores may be any monotone quantity (logits or probabilities).
double Auc(const std::vector<double>& scores,
           const std::vector<float>& labels);

/// Mean absolute error.
double MeanAbsoluteError(const std::vector<double>& predictions,
                         const std::vector<float>& targets);

/// Pearson correlation of two sequences (0 when either is constant).
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Spearman rank correlation (Pearson over fractional ranks).
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

/// Splits items into `num_groups` contiguous groups after sorting by score
/// descending, returning the item indices of each group (group 0 = top
/// scores). Used for the paper's popularity-quintile analysis (Table II).
std::vector<std::vector<int64_t>> RankGroups(
    const std::vector<double>& scores, int num_groups);

/// Mean of `values` restricted to `indices`.
double MeanOver(const std::vector<double>& values,
                const std::vector<int64_t>& indices);

}  // namespace atnn::metrics

#endif  // ATNN_METRICS_METRICS_H_
