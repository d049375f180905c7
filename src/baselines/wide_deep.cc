#include "baselines/wide_deep.h"

#include "common/rng.h"
#include "core/feature_adapter.h"

namespace atnn::baselines {

namespace {

/// Hashed bucket count of the wide branch's categorical crosses.
constexpr int64_t kCrossBuckets = 100000;

/// Index of the categorical field with the given name, or -1.
int64_t FindCategorical(const data::FeatureSchema& schema,
                        const std::string& name) {
  for (size_t c = 0; c < schema.num_categorical(); ++c) {
    if (schema.categorical_spec(c).name == name) {
      return static_cast<int64_t>(c);
    }
  }
  return -1;
}

}  // namespace

WideDeepModel::WideDeepModel(const data::FeatureSchema& user_schema,
                             const data::FeatureSchema& item_profile_schema,
                             const data::FeatureSchema& item_stats_schema,
                             const WideDeepConfig& config)
    : config_(config) {
  Rng rng(config.seed);

  // Wide branch: one weight per categorical value of every field.
  auto add_wide_tables = [this](const data::FeatureSchema& schema,
                                const char* prefix) {
    for (size_t c = 0; c < schema.num_categorical(); ++c) {
      const auto& spec = schema.categorical_spec(c);
      wide_tables_.push_back(std::make_unique<nn::Parameter>(
          std::string("wide_deep.wide.") + prefix + "." + spec.name,
          nn::Tensor::Zeros(spec.vocab_size, 1)));
    }
  };
  add_wide_tables(user_schema, "user");
  add_wide_tables(item_profile_schema, "item");
  num_wide_fields_ = static_cast<int64_t>(wide_tables_.size());

  cross_table_ = std::make_unique<nn::Parameter>(
      "wide_deep.wide.cross", nn::Tensor::Zeros(kCrossBuckets, 1));

  num_dense_ = static_cast<int64_t>(user_schema.num_numeric() +
                                    item_profile_schema.num_numeric());
  if (config.use_item_stats) {
    num_dense_ += static_cast<int64_t>(item_stats_schema.num_numeric());
  }
  wide_dense_ = std::make_unique<nn::Parameter>(
      "wide_deep.wide.dense", nn::Tensor::Zeros(num_dense_, 1));
  bias_ = std::make_unique<nn::Parameter>("wide_deep.bias",
                                          nn::Tensor::Zeros(1, 1));

  // Deep branch, at the schema's embedding widths.
  user_bag_ = std::make_unique<nn::EmbeddingBag>(
      "wide_deep.user", core::ToEmbeddingSpecs(user_schema), &rng);
  item_bag_ = std::make_unique<nn::EmbeddingBag>(
      "wide_deep.item", core::ToEmbeddingSpecs(item_profile_schema), &rng);
  int64_t deep_input =
      user_bag_->OutputDim(static_cast<int64_t>(user_schema.num_numeric())) +
      item_bag_->OutputDim(
          static_cast<int64_t>(item_profile_schema.num_numeric()));
  if (config.use_item_stats) {
    deep_input += static_cast<int64_t>(item_stats_schema.num_numeric());
  }
  std::vector<int64_t> dims = {deep_input};
  dims.insert(dims.end(), config.deep_dims.begin(), config.deep_dims.end());
  dims.push_back(1);
  deep_ = std::make_unique<nn::Mlp>("wide_deep.deep", dims,
                                    nn::Activation::kIdentity, &rng);

  // Cross-feature source fields (skipped gracefully if the schema lacks
  // them).
  cross_user_field_ = FindCategorical(user_schema, "pref_category");
  cross_item_field_ = FindCategorical(item_profile_schema, "category");
}

std::vector<int64_t> WideDeepModel::CrossIds(
    const data::CtrBatch& batch) const {
  const int64_t rows = batch.labels.rows();
  std::vector<int64_t> ids(static_cast<size_t>(rows), 0);
  if (cross_user_field_ < 0 || cross_item_field_ < 0) return ids;
  const auto& user_col =
      batch.user.categorical[static_cast<size_t>(cross_user_field_)];
  const auto& item_col =
      batch.item_profile.categorical[static_cast<size_t>(cross_item_field_)];
  for (int64_t r = 0; r < rows; ++r) {
    const uint64_t hash =
        HashCombine(static_cast<uint64_t>(user_col[static_cast<size_t>(r)]),
                    static_cast<uint64_t>(item_col[static_cast<size_t>(r)]));
    ids[static_cast<size_t>(r)] =
        static_cast<int64_t>(hash % static_cast<uint64_t>(kCrossBuckets));
  }
  return ids;
}

nn::Var WideDeepModel::Logits(const data::CtrBatch& batch) const {
  // --- wide branch ---
  std::vector<nn::Var> wide_terms;
  size_t table = 0;
  for (size_t c = 0; c < batch.user.categorical.size(); ++c, ++table) {
    wide_terms.push_back(nn::EmbeddingLookup(wide_tables_[table]->var(),
                                             batch.user.categorical[c]));
  }
  for (size_t c = 0; c < batch.item_profile.categorical.size();
       ++c, ++table) {
    wide_terms.push_back(nn::EmbeddingLookup(
        wide_tables_[table]->var(), batch.item_profile.categorical[c]));
  }
  wide_terms.push_back(
      nn::EmbeddingLookup(cross_table_->var(), CrossIds(batch)));

  // Dense slab shared by both branches.
  std::vector<nn::Var> dense_parts = {nn::Constant(batch.user.numeric),
                                      nn::Constant(
                                          batch.item_profile.numeric)};
  if (config_.use_item_stats) {
    dense_parts.push_back(nn::Constant(batch.item_stats.numeric));
  }
  nn::Var dense = nn::ConcatCols(dense_parts);
  wide_terms.push_back(nn::MatMul(dense, wide_dense_->var()));

  nn::Var wide = wide_terms[0];
  for (size_t t = 1; t < wide_terms.size(); ++t) {
    wide = nn::Add(wide, wide_terms[t]);
  }

  // --- deep branch ---
  std::vector<nn::Var> deep_parts = {
      user_bag_->Forward(batch.user.categorical, batch.user.numeric),
      item_bag_->Forward(batch.item_profile.categorical,
                         batch.item_profile.numeric)};
  if (config_.use_item_stats) {
    deep_parts.push_back(nn::Constant(batch.item_stats.numeric));
  }
  nn::Var deep = deep_->Forward(nn::ConcatCols(deep_parts));

  return nn::AddBias(nn::Add(wide, deep), bias_->var());
}

std::vector<double> WideDeepModel::PredictCtr(
    const data::CtrBatch& batch) const {
  nn::Var probs = nn::Sigmoid(Logits(batch));
  std::vector<double> result(static_cast<size_t>(probs.rows()));
  for (int64_t r = 0; r < probs.rows(); ++r) {
    result[static_cast<size_t>(r)] = probs.value().at(r, 0);
  }
  return result;
}

void WideDeepModel::CollectParameters(std::vector<nn::Parameter*>* out) {
  for (auto& table : wide_tables_) out->push_back(table.get());
  out->push_back(cross_table_.get());
  out->push_back(wide_dense_.get());
  out->push_back(bias_.get());
  user_bag_->CollectParameters(out);
  item_bag_->CollectParameters(out);
  deep_->CollectParameters(out);
}

}  // namespace atnn::baselines
