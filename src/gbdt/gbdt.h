#ifndef ATNN_GBDT_GBDT_H_
#define ATNN_GBDT_GBDT_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gbdt/binner.h"
#include "gbdt/tree.h"
#include "nn/tensor.h"

namespace atnn::gbdt {

enum class GbdtLoss {
  /// Binary classification on 0/1 labels; margins pass through a sigmoid.
  kLogistic,
  /// Plain regression on float targets.
  kSquared,
};

/// Hyper-parameters for the boosting ensemble.
struct GbdtConfig {
  int num_trees = 80;
  double learning_rate = 0.1;
  GbdtLoss loss = GbdtLoss::kLogistic;
  /// Histogram resolution.
  int max_bins = 64;
  /// Row subsampling fraction per tree (stochastic gradient boosting).
  double subsample = 0.8;
  TreeConfig tree;
  uint64_t seed = 1234;
};

/// Gradient-boosted decision trees (Friedman 2001) with second-order
/// (Newton) leaf weights and histogram split finding — the GBDT baseline
/// of Table I.
class GbdtModel {
 public:
  GbdtModel() = default;

  /// Fits the ensemble. `features` is [rows, cols] raw floats (categorical
  /// ids may be passed as ordinal floats); `labels` holds 0/1 for logistic
  /// loss or arbitrary targets for squared loss.
  void Train(const nn::Tensor& features, const std::vector<float>& labels,
             const GbdtConfig& config);

  /// Raw additive margins (log-odds for logistic loss).
  std::vector<double> PredictRaw(const nn::Tensor& features) const;

  /// Sigmoid(margin) — logistic loss only.
  std::vector<double> PredictProbability(const nn::Tensor& features) const;

  /// Training loss after each boosting round (for convergence tests).
  const std::vector<double>& training_loss_curve() const {
    return training_loss_;
  }

  size_t num_trees() const { return trees_.size(); }
  const GbdtConfig& config() const { return config_; }

 private:
  GbdtConfig config_;
  FeatureBinner binner_;
  std::vector<RegressionTree> trees_;
  double base_margin_ = 0.0;
  size_t num_columns_ = 0;
  std::vector<double> training_loss_;
};

}  // namespace atnn::gbdt

#endif  // ATNN_GBDT_GBDT_H_
