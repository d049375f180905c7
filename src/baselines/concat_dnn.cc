#include "baselines/concat_dnn.h"

#include "common/rng.h"
#include "core/feature_adapter.h"

namespace atnn::baselines {

ConcatDnnModel::ConcatDnnModel(const data::FeatureSchema& user_schema,
                               const data::FeatureSchema& item_profile_schema,
                               const data::FeatureSchema& item_stats_schema,
                               const ConcatDnnConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  user_bag_ = std::make_unique<nn::EmbeddingBag>(
      "concat_dnn.user", core::ToEmbeddingSpecs(user_schema), &rng);
  item_bag_ = std::make_unique<nn::EmbeddingBag>(
      "concat_dnn.item", core::ToEmbeddingSpecs(item_profile_schema), &rng);
  int64_t input =
      user_bag_->OutputDim(static_cast<int64_t>(user_schema.num_numeric())) +
      item_bag_->OutputDim(
          static_cast<int64_t>(item_profile_schema.num_numeric()));
  if (config.use_item_stats) {
    input += static_cast<int64_t>(item_stats_schema.num_numeric());
  }
  std::vector<int64_t> dims = {input};
  dims.insert(dims.end(), config.hidden_dims.begin(),
              config.hidden_dims.end());
  dims.push_back(1);
  mlp_ = std::make_unique<nn::Mlp>("concat_dnn.mlp", dims,
                                   nn::Activation::kIdentity, &rng);
}

nn::Var ConcatDnnModel::Logits(const data::CtrBatch& batch) const {
  std::vector<nn::Var> parts = {
      user_bag_->Forward(batch.user.categorical, batch.user.numeric),
      item_bag_->Forward(batch.item_profile.categorical,
                         batch.item_profile.numeric)};
  if (config_.use_item_stats) {
    parts.push_back(nn::Constant(batch.item_stats.numeric));
  }
  return mlp_->Forward(nn::ConcatCols(parts));
}

std::vector<double> ConcatDnnModel::PredictCtr(
    const data::CtrBatch& batch) const {
  nn::Var probs = nn::Sigmoid(Logits(batch));
  std::vector<double> result(static_cast<size_t>(probs.rows()));
  for (int64_t r = 0; r < probs.rows(); ++r) {
    result[static_cast<size_t>(r)] = probs.value().at(r, 0);
  }
  return result;
}

void ConcatDnnModel::CollectParameters(std::vector<nn::Parameter*>* out) {
  user_bag_->CollectParameters(out);
  item_bag_->CollectParameters(out);
  mlp_->CollectParameters(out);
}

}  // namespace atnn::baselines
