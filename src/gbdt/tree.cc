#include "gbdt/tree.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace atnn::gbdt {

namespace {

double LeafObjective(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

}  // namespace

void RegressionTree::Grow(const std::vector<uint8_t>& binned,
                          size_t num_columns, const FeatureBinner& binner,
                          const std::vector<double>& gradients,
                          const std::vector<double>& hessians,
                          const std::vector<int64_t>& row_indices,
                          const TreeConfig& config, Rng* rng) {
  ATNN_CHECK(!row_indices.empty());
  ATNN_CHECK_EQ(gradients.size(), hessians.size());
  nodes_.clear();
  std::vector<int64_t> rows = row_indices;
  BuildNode(binned, num_columns, binner, gradients, hessians, &rows, 0,
            config, rng);
}

int RegressionTree::BuildNode(const std::vector<uint8_t>& binned,
                              size_t num_columns, const FeatureBinner& binner,
                              const std::vector<double>& gradients,
                              const std::vector<double>& hessians,
                              std::vector<int64_t>* rows, int depth,
                              const TreeConfig& config, Rng* rng) {
  double sum_g = 0.0;
  double sum_h = 0.0;
  for (int64_t row : *rows) {
    sum_g += gradients[static_cast<size_t>(row)];
    sum_h += hessians[static_cast<size_t>(row)];
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_index)].weight =
      -sum_g / (sum_h + config.lambda);

  const bool can_split =
      depth < config.max_depth &&
      static_cast<int>(rows->size()) >= 2 * config.min_samples_leaf;
  if (!can_split) return node_index;

  // Histogram per candidate feature: gradient/hessian/count by bin.
  SplitDecision best;
  const double parent_objective =
      LeafObjective(sum_g, sum_h, config.lambda);
  std::vector<double> hist_g;
  std::vector<double> hist_h;
  std::vector<int64_t> hist_n;
  for (size_t feature = 0; feature < num_columns; ++feature) {
    if (config.colsample < 1.0 && rng->Uniform() > config.colsample) continue;
    const int bins = binner.num_bins(feature);
    if (bins < 2) continue;
    hist_g.assign(static_cast<size_t>(bins), 0.0);
    hist_h.assign(static_cast<size_t>(bins), 0.0);
    hist_n.assign(static_cast<size_t>(bins), 0);
    for (int64_t row : *rows) {
      const uint8_t bin =
          binned[static_cast<size_t>(row) * num_columns + feature];
      hist_g[bin] += gradients[static_cast<size_t>(row)];
      hist_h[bin] += hessians[static_cast<size_t>(row)];
      ++hist_n[bin];
    }
    // Scan split points left-to-right.
    double left_g = 0.0;
    double left_h = 0.0;
    int64_t left_n = 0;
    for (int bin = 0; bin + 1 < bins; ++bin) {
      left_g += hist_g[static_cast<size_t>(bin)];
      left_h += hist_h[static_cast<size_t>(bin)];
      left_n += hist_n[static_cast<size_t>(bin)];
      const int64_t right_n = static_cast<int64_t>(rows->size()) - left_n;
      if (left_n < config.min_samples_leaf ||
          right_n < config.min_samples_leaf) {
        continue;
      }
      const double right_g = sum_g - left_g;
      const double right_h = sum_h - left_h;
      if (left_h < config.min_child_weight ||
          right_h < config.min_child_weight) {
        continue;
      }
      const double gain = 0.5 * (LeafObjective(left_g, left_h, config.lambda) +
                                 LeafObjective(right_g, right_h,
                                               config.lambda) -
                                 parent_objective);
      if (gain > best.gain) {
        best.found = true;
        best.feature = static_cast<int>(feature);
        best.threshold_bin = bin;
        best.gain = gain;
      }
    }
  }

  if (!best.found || best.gain < config.min_gain) return node_index;

  // Partition rows in place.
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  left_rows.reserve(rows->size());
  right_rows.reserve(rows->size());
  for (int64_t row : *rows) {
    const uint8_t bin = binned[static_cast<size_t>(row) * num_columns +
                               static_cast<size_t>(best.feature)];
    if (static_cast<int>(bin) <= best.threshold_bin) {
      left_rows.push_back(row);
    } else {
      right_rows.push_back(row);
    }
  }
  // Free the parent's row list before recursing to bound peak memory.
  rows->clear();
  rows->shrink_to_fit();

  const int left_child =
      BuildNode(binned, num_columns, binner, gradients, hessians, &left_rows,
                depth + 1, config, rng);
  const int right_child =
      BuildNode(binned, num_columns, binner, gradients, hessians, &right_rows,
                depth + 1, config, rng);

  Node& node = nodes_[static_cast<size_t>(node_index)];
  node.is_leaf = false;
  node.feature = best.feature;
  node.threshold_bin = best.threshold_bin;
  node.left = left_child;
  node.right = right_child;
  return node_index;
}

double RegressionTree::PredictBinned(const uint8_t* bins) const {
  ATNN_DCHECK(!nodes_.empty());
  int index = 0;
  while (!nodes_[static_cast<size_t>(index)].is_leaf) {
    const Node& node = nodes_[static_cast<size_t>(index)];
    const uint8_t bin = bins[node.feature];
    index = (static_cast<int>(bin) <= node.threshold_bin) ? node.left
                                                          : node.right;
  }
  return nodes_[static_cast<size_t>(index)].weight;
}

}  // namespace atnn::gbdt
