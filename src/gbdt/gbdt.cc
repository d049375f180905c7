#include "gbdt/gbdt.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace atnn::gbdt {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

void GbdtModel::Train(const nn::Tensor& features,
                      const std::vector<float>& labels,
                      const GbdtConfig& config) {
  const int64_t rows = features.rows();
  ATNN_CHECK(rows > 0);
  ATNN_CHECK_EQ(static_cast<size_t>(rows), labels.size());
  config_ = config;
  num_columns_ = static_cast<size_t>(features.cols());
  trees_.clear();
  training_loss_.clear();

  binner_ = FeatureBinner::Fit(features, config.max_bins);
  const std::vector<uint8_t> binned = binner_.BinMatrix(features);

  // Base margin: log-odds of the base rate (logistic) or label mean.
  double label_mean = 0.0;
  for (float label : labels) label_mean += label;
  label_mean /= static_cast<double>(rows);
  if (config.loss == GbdtLoss::kLogistic) {
    const double p = std::clamp(label_mean, 1e-6, 1.0 - 1e-6);
    base_margin_ = std::log(p / (1.0 - p));
  } else {
    base_margin_ = label_mean;
  }

  std::vector<double> margins(static_cast<size_t>(rows), base_margin_);
  std::vector<double> gradients(static_cast<size_t>(rows));
  std::vector<double> hessians(static_cast<size_t>(rows));
  Rng rng(config.seed);

  for (int round = 0; round < config.num_trees; ++round) {
    double loss = 0.0;
    for (int64_t r = 0; r < rows; ++r) {
      const auto i = static_cast<size_t>(r);
      const double y = labels[i];
      if (config.loss == GbdtLoss::kLogistic) {
        const double p = Sigmoid(margins[i]);
        gradients[i] = p - y;
        hessians[i] = std::max(p * (1.0 - p), 1e-12);
        loss += -(y * std::log(std::max(p, 1e-12)) +
                  (1.0 - y) * std::log(std::max(1.0 - p, 1e-12)));
      } else {
        gradients[i] = margins[i] - y;
        hessians[i] = 1.0;
        loss += 0.5 * (margins[i] - y) * (margins[i] - y);
      }
    }
    training_loss_.push_back(loss / static_cast<double>(rows));

    // Row subsampling (stochastic gradient boosting).
    std::vector<int64_t> tree_rows;
    tree_rows.reserve(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
      if (config.subsample >= 1.0 || rng.Uniform() < config.subsample) {
        tree_rows.push_back(r);
      }
    }
    if (tree_rows.empty()) tree_rows.push_back(0);

    RegressionTree tree;
    tree.Grow(binned, num_columns_, binner_, gradients, hessians, tree_rows,
              config.tree, &rng);

    // Update margins over all rows.
    for (int64_t r = 0; r < rows; ++r) {
      const uint8_t* bins = &binned[static_cast<size_t>(r) * num_columns_];
      margins[static_cast<size_t>(r)] +=
          config.learning_rate * tree.PredictBinned(bins);
    }
    trees_.push_back(std::move(tree));
  }
}

std::vector<double> GbdtModel::PredictRaw(const nn::Tensor& features) const {
  ATNN_CHECK_EQ(static_cast<size_t>(features.cols()), num_columns_);
  const std::vector<uint8_t> binned = binner_.BinMatrix(features);
  std::vector<double> margins(static_cast<size_t>(features.rows()),
                              base_margin_);
  for (const RegressionTree& tree : trees_) {
    for (int64_t r = 0; r < features.rows(); ++r) {
      const uint8_t* bins = &binned[static_cast<size_t>(r) * num_columns_];
      margins[static_cast<size_t>(r)] +=
          config_.learning_rate * tree.PredictBinned(bins);
    }
  }
  return margins;
}

std::vector<double> GbdtModel::PredictProbability(
    const nn::Tensor& features) const {
  ATNN_CHECK(config_.loss == GbdtLoss::kLogistic);
  std::vector<double> result = PredictRaw(features);
  for (double& value : result) value = Sigmoid(value);
  return result;
}

}  // namespace atnn::gbdt
