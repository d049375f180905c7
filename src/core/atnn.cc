#include "core/atnn.h"

#include "core/feature_adapter.h"

namespace atnn::core {

namespace {

template <typename T>
std::unique_ptr<T> CopyOrNull(const std::unique_ptr<T>& source) {
  return source != nullptr ? std::make_unique<T>(*source) : nullptr;
}

}  // namespace

AtnnModel::AtnnModel(const data::FeatureSchema& user_schema,
                     const data::FeatureSchema& item_profile_schema,
                     const data::FeatureSchema& item_stats_schema,
                     const AtnnConfig& config)
    : config_(config),
      encoder_bias_("atnn.encoder_bias", nn::Tensor::Zeros(1, 1)),
      generator_bias_("atnn.generator_bias", nn::Tensor::Zeros(1, 1)) {
  Rng rng(config.seed);
  user_bag_ = std::make_unique<nn::EmbeddingBag>(
      "atnn.user", ToEmbeddingSpecs(user_schema), &rng);
  item_profile_bag_ = std::make_unique<nn::EmbeddingBag>(
      "atnn.item", ToEmbeddingSpecs(item_profile_schema), &rng);
  if (!config.share_embeddings) {
    generator_bag_ = std::make_unique<nn::EmbeddingBag>(
        "atnn.gen_item", ToEmbeddingSpecs(item_profile_schema), &rng);
  }

  const auto user_numeric = static_cast<int64_t>(user_schema.num_numeric());
  const auto profile_numeric =
      static_cast<int64_t>(item_profile_schema.num_numeric());
  const auto stats_numeric =
      static_cast<int64_t>(item_stats_schema.num_numeric());

  const int64_t user_input = user_bag_->OutputDim(user_numeric);
  const int64_t profile_input = item_profile_bag_->OutputDim(profile_numeric);
  const int64_t encoder_input = profile_input + stats_numeric;

  user_tower_ = std::make_unique<nn::Tower>("atnn.user_tower", user_input,
                                            config.tower, &rng);
  encoder_tower_ = std::make_unique<nn::Tower>(
      "atnn.encoder_tower", encoder_input, config.tower, &rng);
  generator_tower_ = std::make_unique<nn::Tower>(
      "atnn.generator_tower", profile_input, config.tower, &rng);
}

AtnnModel::AtnnModel(const AtnnModel& other)
    : nn::Module(other),
      config_(other.config_),
      user_bag_(CopyOrNull(other.user_bag_)),
      item_profile_bag_(CopyOrNull(other.item_profile_bag_)),
      generator_bag_(CopyOrNull(other.generator_bag_)),
      user_tower_(CopyOrNull(other.user_tower_)),
      encoder_tower_(CopyOrNull(other.encoder_tower_)),
      generator_tower_(CopyOrNull(other.generator_tower_)),
      encoder_bias_(other.encoder_bias_),
      generator_bias_(other.generator_bias_) {}

nn::Var AtnnModel::UserVector(const data::BlockBatch& user) const {
  return user_tower_->Forward(
      user_bag_->Forward(user.categorical, user.numeric));
}

nn::Var AtnnModel::EncoderItemVector(
    const data::BlockBatch& item_profile,
    const data::BlockBatch& item_stats) const {
  ATNN_CHECK_EQ(item_stats.numeric.rows(), item_profile.rows());
  nn::Var profile_input = item_profile_bag_->Forward(item_profile.categorical,
                                                     item_profile.numeric);
  // ScratchCopy keeps the step allocation-free: a plain Constant copy
  // would deep-copy the stats block onto the heap every step.
  nn::Var full_input = nn::ConcatCols(
      {profile_input, nn::Constant(nn::ScratchCopy(item_stats.numeric))});
  return encoder_tower_->Forward(full_input);
}

nn::Var AtnnModel::GeneratorItemVector(
    const data::BlockBatch& item_profile) const {
  const nn::EmbeddingBag& bag =
      config_.share_embeddings ? *item_profile_bag_ : *generator_bag_;
  return generator_tower_->Forward(
      bag.Forward(item_profile.categorical, item_profile.numeric));
}

nn::Var AtnnModel::EncoderLogits(const nn::Var& item_vec,
                                 const nn::Var& user_vec) const {
  return nn::AddBias(nn::RowwiseDot(item_vec, user_vec), encoder_bias_.var());
}

nn::Var AtnnModel::GeneratorLogits(const nn::Var& gen_vec,
                                   const nn::Var& user_vec) const {
  return nn::AddBias(nn::RowwiseDot(gen_vec, user_vec),
                     generator_bias_.var());
}

nn::Var AtnnModel::SimilarityLoss(const nn::Var& gen_vec,
                                  const nn::Var& encoder_vec) const {
  // The encoder is the (frozen) target; the generator chases it. Freezing
  // implements the alternating minimax schedule of Algorithm 1: the G step
  // must not move the encoder.
  nn::Var target = nn::StopGradient(encoder_vec);
  switch (config_.similarity) {
    case SimilarityMode::kCosine: {
      // L_s = mean((1 - cos(g, f_i))^2), the paper's mean((1 - x_i)^2).
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

std::vector<double> AtnnModel::PredictCtrEncoder(
    const data::BlockBatch& user, const data::BlockBatch& item_profile,
    const data::BlockBatch& item_stats) const {
  nn::NoGradGuard no_grad;
  const nn::ArenaScope arena_scope;
  nn::Var probs = nn::Sigmoid(EncoderLogits(
      EncoderItemVector(item_profile, item_stats), UserVector(user)));
  std::vector<double> result(static_cast<size_t>(probs.rows()));
  for (int64_t r = 0; r < probs.rows(); ++r) {
    result[static_cast<size_t>(r)] = probs.value().at(r, 0);
  }
  return result;
}

std::vector<double> AtnnModel::PredictCtrGenerator(
    const data::BlockBatch& user,
    const data::BlockBatch& item_profile) const {
  nn::NoGradGuard no_grad;
  const nn::ArenaScope arena_scope;
  nn::Var probs = nn::Sigmoid(
      GeneratorLogits(GeneratorItemVector(item_profile), UserVector(user)));
  std::vector<double> result(static_cast<size_t>(probs.rows()));
  for (int64_t r = 0; r < probs.rows(); ++r) {
    result[static_cast<size_t>(r)] = probs.value().at(r, 0);
  }
  return result;
}

std::vector<nn::Parameter*> AtnnModel::DiscriminatorParameters() {
  std::vector<nn::Parameter*> params;
  user_bag_->CollectParameters(&params);
  item_profile_bag_->CollectParameters(&params);
  user_tower_->CollectParameters(&params);
  encoder_tower_->CollectParameters(&params);
  params.push_back(&encoder_bias_);
  return params;
}

std::vector<nn::Parameter*> AtnnModel::GeneratorParameters() {
  std::vector<nn::Parameter*> params;
  if (config_.share_embeddings) {
    // Shared tables are trained by both steps (each optimizer keeps its
    // own moments, the common practice for shared embeddings).
    item_profile_bag_->CollectParameters(&params);
  } else {
    generator_bag_->CollectParameters(&params);
  }
  generator_tower_->CollectParameters(&params);
  params.push_back(&generator_bias_);
  return params;
}

void AtnnModel::CollectParameters(std::vector<nn::Parameter*>* out) {
  user_bag_->CollectParameters(out);
  item_profile_bag_->CollectParameters(out);
  if (generator_bag_ != nullptr) generator_bag_->CollectParameters(out);
  user_tower_->CollectParameters(out);
  encoder_tower_->CollectParameters(out);
  generator_tower_->CollectParameters(out);
  out->push_back(&encoder_bias_);
  out->push_back(&generator_bias_);
}

}  // namespace atnn::core
