#include "core/multitask_atnn.h"

#include "core/feature_adapter.h"

namespace atnn::core {

MultiTaskAtnnModel::MultiTaskAtnnModel(
    const data::FeatureSchema& restaurant_profile_schema,
    const data::FeatureSchema& restaurant_stats_schema,
    const data::FeatureSchema& user_group_schema,
    const MultiTaskAtnnConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  group_bag_ = std::make_unique<nn::EmbeddingBag>(
      "mt_atnn.group", ToEmbeddingSpecs(user_group_schema), &rng);
  profile_bag_ = std::make_unique<nn::EmbeddingBag>(
      "mt_atnn.profile", ToEmbeddingSpecs(restaurant_profile_schema), &rng);
  if (config.adversarial && !config.share_embeddings) {
    generator_bag_ = std::make_unique<nn::EmbeddingBag>(
        "mt_atnn.gen_profile", ToEmbeddingSpecs(restaurant_profile_schema),
        &rng);
  }

  const auto group_numeric =
      static_cast<int64_t>(user_group_schema.num_numeric());
  const auto profile_numeric =
      static_cast<int64_t>(restaurant_profile_schema.num_numeric());
  const auto stats_numeric =
      static_cast<int64_t>(restaurant_stats_schema.num_numeric());

  const int64_t group_input = group_bag_->OutputDim(group_numeric);
  const int64_t profile_input = profile_bag_->OutputDim(profile_numeric);
  const int64_t encoder_input =
      config.adversarial ? profile_input + stats_numeric : profile_input;

  group_tower_ = std::make_unique<nn::Tower>("mt_atnn.group_tower",
                                             group_input, config.tower, &rng);
  encoder_tower_ = std::make_unique<nn::Tower>(
      "mt_atnn.encoder_tower", encoder_input, config.tower, &rng);
  if (config.adversarial) {
    generator_tower_ = std::make_unique<nn::Tower>(
        "mt_atnn.generator_tower", profile_input, config.tower, &rng);
  }

  // Task heads over the concatenated (restaurant, group) representation.
  const int64_t head_input = 2 * config.tower.output_dim;
  const std::vector<int64_t> head_dims = {head_input,
                                          config.tower.output_dim, 1};
  gmv_head_ = std::make_unique<nn::Mlp>("mt_atnn.gmv_head", head_dims,
                                        nn::Activation::kIdentity, &rng);
  vppv_head_ = std::make_unique<nn::Mlp>("mt_atnn.vppv_head", head_dims,
                                         nn::Activation::kIdentity, &rng);
}

nn::Var MultiTaskAtnnModel::GroupVector(const data::BlockBatch& group) const {
  return group_tower_->Forward(
      group_bag_->Forward(group.categorical, group.numeric));
}

nn::Var MultiTaskAtnnModel::EncoderVector(
    const data::BlockBatch& profile, const data::BlockBatch& stats) const {
  nn::Var profile_input =
      profile_bag_->Forward(profile.categorical, profile.numeric);
  if (!config_.adversarial) {
    // Baseline mode: the encoder is profile-only by construction.
    return encoder_tower_->Forward(profile_input);
  }
  ATNN_CHECK_EQ(stats.numeric.rows(), profile.rows());
  return encoder_tower_->Forward(
      nn::ConcatCols(
          {profile_input, nn::Constant(nn::ScratchCopy(stats.numeric))}));
}

nn::Var MultiTaskAtnnModel::GeneratorVector(
    const data::BlockBatch& profile) const {
  ATNN_CHECK(config_.adversarial)
      << "baseline configuration has no generator";
  const nn::EmbeddingBag& bag =
      config_.share_embeddings ? *profile_bag_ : *generator_bag_;
  return generator_tower_->Forward(
      bag.Forward(profile.categorical, profile.numeric));
}

nn::Var MultiTaskAtnnModel::PredictGmv(const nn::Var& item_vec,
                                       const nn::Var& group_vec) const {
  return gmv_head_->Forward(nn::ConcatCols({item_vec, group_vec}));
}

nn::Var MultiTaskAtnnModel::PredictVppv(const nn::Var& item_vec,
                                        const nn::Var& group_vec) const {
  return vppv_head_->Forward(nn::ConcatCols({item_vec, group_vec}));
}

nn::Var MultiTaskAtnnModel::SimilarityLoss(const nn::Var& gen_vec,
                                           const nn::Var& encoder_vec) const {
  nn::Var target = nn::StopGradient(encoder_vec);
  switch (config_.similarity) {
    case SimilarityMode::kCosine: {
      nn::Var cosine = nn::CosineSimilarityRows(gen_vec, target);
      nn::Tensor ones_data = nn::ScratchTensorUninit(cosine.rows(), 1);
      ones_data.Fill(1.0f);
      nn::Var ones = nn::Constant(std::move(ones_data));
      return nn::ReduceMean(nn::Square(nn::Sub(ones, cosine)));
    }
    case SimilarityMode::kL2:
      return nn::MseBetween(gen_vec, target);
  }
  ATNN_CHECK(false) << "unknown similarity mode";
  return nn::Var();
}

MultiTaskAtnnModel::Predictions MultiTaskAtnnModel::PredictColdStart(
    const data::BlockBatch& profile, const data::BlockBatch& group) const {
  nn::NoGradGuard no_grad;
  const nn::ArenaScope arena_scope;
  nn::Var group_vec = GroupVector(group);
  nn::Var item_vec;
  if (config_.adversarial) {
    item_vec = GeneratorVector(profile);
  } else {
    // Baseline: profile-only encoder; pass an empty stats block.
    data::BlockBatch empty_stats;
    empty_stats.numeric = nn::Tensor(profile.rows(), 0);
    item_vec = EncoderVector(profile, empty_stats);
  }
  nn::Var vppv = PredictVppv(item_vec, group_vec);
  nn::Var gmv = PredictGmv(item_vec, group_vec);
  Predictions result;
  result.vppv.resize(static_cast<size_t>(vppv.rows()));
  result.gmv.resize(static_cast<size_t>(gmv.rows()));
  for (int64_t r = 0; r < vppv.rows(); ++r) {
    result.vppv[static_cast<size_t>(r)] = vppv.value().at(r, 0);
    result.gmv[static_cast<size_t>(r)] = gmv.value().at(r, 0);
  }
  return result;
}

std::vector<nn::Parameter*> MultiTaskAtnnModel::DiscriminatorParameters() {
  std::vector<nn::Parameter*> params;
  group_bag_->CollectParameters(&params);
  profile_bag_->CollectParameters(&params);
  group_tower_->CollectParameters(&params);
  encoder_tower_->CollectParameters(&params);
  gmv_head_->CollectParameters(&params);
  vppv_head_->CollectParameters(&params);
  return params;
}

std::vector<nn::Parameter*> MultiTaskAtnnModel::GeneratorParameters() {
  std::vector<nn::Parameter*> params;
  if (!config_.adversarial) return params;
  if (config_.share_embeddings) {
    // Shared tables participate in both steps (see AtnnModel).
    profile_bag_->CollectParameters(&params);
  } else {
    generator_bag_->CollectParameters(&params);
  }
  generator_tower_->CollectParameters(&params);
  return params;
}

void MultiTaskAtnnModel::CollectParameters(
    std::vector<nn::Parameter*>* out) {
  group_bag_->CollectParameters(out);
  profile_bag_->CollectParameters(out);
  if (generator_bag_ != nullptr) generator_bag_->CollectParameters(out);
  group_tower_->CollectParameters(out);
  encoder_tower_->CollectParameters(out);
  if (generator_tower_ != nullptr) generator_tower_->CollectParameters(out);
  gmv_head_->CollectParameters(out);
  vppv_head_->CollectParameters(out);
}

}  // namespace atnn::core
