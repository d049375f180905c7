#ifndef ATNN_BASELINES_DEEPFM_H_
#define ATNN_BASELINES_DEEPFM_H_

#include <memory>
#include <vector>

#include "data/schema.h"
#include "data/tmall.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace atnn::baselines {

/// DeepFM hyper-parameters (Guo et al., IJCAI'17).
struct DeepFmConfig {
  /// Hidden widths of the deep component.
  std::vector<int64_t> deep_dims = {64, 32};
  bool use_item_stats = true;
  uint64_t seed = 37;
};

/// DeepFM: an FM component and a deep component sharing one set of field
/// embeddings.
///   logit = bias + first_order + fm_second_order + deep(x)
/// where first_order sums per-value scalar weights, the second-order term
/// is 0.5 * (||sum_f e_f||^2 - sum_f ||e_f||^2) over the shared field
/// embeddings, and the deep component is an MLP over their concatenation
/// (plus dense features). Dense numerics enter the first-order term and
/// the MLP (the usual treatment; FM interactions are over fields).
class DeepFmModel : public nn::Module {
 public:
  DeepFmModel(const data::FeatureSchema& user_schema,
              const data::FeatureSchema& item_profile_schema,
              const data::FeatureSchema& item_stats_schema,
              const DeepFmConfig& config);

  /// CTR logits for a gathered batch: [n, 1].
  nn::Var Logits(const data::CtrBatch& batch) const;

  /// Click probabilities (no gradient).
  std::vector<double> PredictCtr(const data::CtrBatch& batch) const;

  void CollectParameters(std::vector<nn::Parameter*>* out) override;

  size_t num_fields() const { return embed_tables_.size(); }

 private:
  /// Collects per-field id columns of a batch in construction order
  /// (user fields then item-profile fields).
  std::vector<const std::vector<int64_t>*> FieldColumns(
      const data::CtrBatch& batch) const;

  DeepFmConfig config_;
  std::vector<std::unique_ptr<nn::Parameter>> first_order_tables_;  // [v,1]
  std::vector<std::unique_ptr<nn::Parameter>> embed_tables_;        // [v,k]
  std::unique_ptr<nn::Parameter> dense_linear_;  // [num_dense, 1]
  std::unique_ptr<nn::Parameter> bias_;          // [1, 1]
  std::unique_ptr<nn::Mlp> deep_;
  size_t num_user_fields_ = 0;
  int64_t num_dense_ = 0;
};

}  // namespace atnn::baselines

#endif  // ATNN_BASELINES_DEEPFM_H_
