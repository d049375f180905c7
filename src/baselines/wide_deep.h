#ifndef ATNN_BASELINES_WIDE_DEEP_H_
#define ATNN_BASELINES_WIDE_DEEP_H_

#include <memory>
#include <vector>

#include "data/schema.h"
#include "data/tmall.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace atnn::baselines {

/// Wide & Deep hyper-parameters (Cheng et al., DLRS'16).
struct WideDeepConfig {
  /// Hidden widths of the deep branch.
  std::vector<int64_t> deep_dims = {64, 32};
  /// When false, item statistics are excluded from both branches.
  bool use_item_stats = true;
  uint64_t seed = 29;
};

/// Wide & Deep CTR model: a wide linear branch over raw categorical
/// one-hots and hashed (user-category x item-category) crosses, jointly
/// trained with a deep embedding-MLP branch; the logit is the sum of the
/// two. Both branches are expressed through the autograd substrate — the
/// wide branch is a 1-dimensional embedding lookup, which makes its
/// training sparse and cheap exactly as in the original system.
class WideDeepModel : public nn::Module {
 public:
  WideDeepModel(const data::FeatureSchema& user_schema,
                const data::FeatureSchema& item_profile_schema,
                const data::FeatureSchema& item_stats_schema,
                const WideDeepConfig& config);

  /// CTR logits for a gathered batch: [n, 1].
  nn::Var Logits(const data::CtrBatch& batch) const;

  /// Click probabilities (no gradient).
  std::vector<double> PredictCtr(const data::CtrBatch& batch) const;

  void CollectParameters(std::vector<nn::Parameter*>* out) override;

 private:
  /// Hashed cross-feature ids of (user pref-category, item category).
  std::vector<int64_t> CrossIds(const data::CtrBatch& batch) const;

  WideDeepConfig config_;
  // Wide branch: per-value weights (1-dim embeddings) per categorical
  // field plus the hashed cross table and a dense-weight vector.
  std::vector<std::unique_ptr<nn::Parameter>> wide_tables_;
  std::unique_ptr<nn::Parameter> cross_table_;
  std::unique_ptr<nn::Parameter> wide_dense_;  // [num_dense, 1]
  std::unique_ptr<nn::Parameter> bias_;        // [1, 1]
  // Deep branch.
  std::unique_ptr<nn::EmbeddingBag> user_bag_;
  std::unique_ptr<nn::EmbeddingBag> item_bag_;
  std::unique_ptr<nn::Mlp> deep_;
  int64_t num_wide_fields_ = 0;
  int64_t num_dense_ = 0;
  int64_t cross_user_field_ = -1;
  int64_t cross_item_field_ = -1;
};

}  // namespace atnn::baselines

#endif  // ATNN_BASELINES_WIDE_DEEP_H_
