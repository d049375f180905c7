#ifndef ATNN_GBDT_TREE_H_
#define ATNN_GBDT_TREE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gbdt/binner.h"

namespace atnn::gbdt {

/// Hyper-parameters for growing one regression tree on gradients/hessians
/// (shared by the boosting driver).
struct TreeConfig {
  int max_depth = 6;
  /// Minimum hessian mass per child (XGBoost's min_child_weight).
  double min_child_weight = 1.0;
  /// Minimum row count per leaf.
  int min_samples_leaf = 10;
  /// L2 regularization on leaf weights.
  double lambda = 1.0;
  /// Minimum gain required to split.
  double min_gain = 1e-6;
  /// Fraction of features considered per split (column subsampling).
  double colsample = 1.0;
};

/// A binary regression tree over binned features. Internal nodes split on
/// (feature, bin threshold); leaves carry Newton weights -G/(H+lambda).
class RegressionTree {
 public:
  struct Node {
    bool is_leaf = true;
    int feature = -1;
    /// Go left when bin <= threshold_bin.
    int threshold_bin = 0;
    int left = -1;
    int right = -1;
    double weight = 0.0;
  };

  /// Grows a tree from per-row gradients/hessians over the rows listed in
  /// `row_indices`. `binned` is row-major uint8 [num_rows, num_columns].
  void Grow(const std::vector<uint8_t>& binned, size_t num_columns,
            const FeatureBinner& binner, const std::vector<double>& gradients,
            const std::vector<double>& hessians,
            const std::vector<int64_t>& row_indices, const TreeConfig& config,
            Rng* rng);

  /// Prediction for one binned row (pointer to its num_columns bins).
  double PredictBinned(const uint8_t* bins) const;

 private:
  struct SplitDecision {
    bool found = false;
    int feature = -1;
    int threshold_bin = 0;
    double gain = 0.0;
  };

  int BuildNode(const std::vector<uint8_t>& binned, size_t num_columns,
                const FeatureBinner& binner,
                const std::vector<double>& gradients,
                const std::vector<double>& hessians,
                std::vector<int64_t>* rows, int depth,
                const TreeConfig& config, Rng* rng);

  std::vector<Node> nodes_;
};

}  // namespace atnn::gbdt

#endif  // ATNN_GBDT_TREE_H_
