#include "baselines/deepfm.h"

#include "common/rng.h"
#include "nn/init.h"

namespace atnn::baselines {

namespace {

/// Shared embedding width of every categorical field.
constexpr int64_t kEmbedDim = 8;

}  // namespace

DeepFmModel::DeepFmModel(const data::FeatureSchema& user_schema,
                         const data::FeatureSchema& item_profile_schema,
                         const data::FeatureSchema& item_stats_schema,
                         const DeepFmConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  auto add_field_tables = [this, &rng](const data::FeatureSchema& schema,
                                       const char* prefix) {
    for (size_t c = 0; c < schema.num_categorical(); ++c) {
      const auto& spec = schema.categorical_spec(c);
      first_order_tables_.push_back(std::make_unique<nn::Parameter>(
          std::string("deepfm.w1.") + prefix + "." + spec.name,
          nn::Tensor::Zeros(spec.vocab_size, 1)));
      embed_tables_.push_back(std::make_unique<nn::Parameter>(
          std::string("deepfm.emb.") + prefix + "." + spec.name,
          nn::NormalInit(spec.vocab_size, kEmbedDim, 0.05f, &rng)));
    }
  };
  add_field_tables(user_schema, "user");
  num_user_fields_ = embed_tables_.size();
  add_field_tables(item_profile_schema, "item");

  num_dense_ = static_cast<int64_t>(user_schema.num_numeric() +
                                    item_profile_schema.num_numeric());
  if (config.use_item_stats) {
    num_dense_ += static_cast<int64_t>(item_stats_schema.num_numeric());
  }
  dense_linear_ = std::make_unique<nn::Parameter>(
      "deepfm.w1.dense", nn::Tensor::Zeros(num_dense_, 1));
  bias_ = std::make_unique<nn::Parameter>("deepfm.bias",
                                          nn::Tensor::Zeros(1, 1));

  const int64_t deep_input =
      static_cast<int64_t>(embed_tables_.size()) * kEmbedDim + num_dense_;
  std::vector<int64_t> dims = {deep_input};
  dims.insert(dims.end(), config.deep_dims.begin(), config.deep_dims.end());
  dims.push_back(1);
  deep_ = std::make_unique<nn::Mlp>("deepfm.deep", dims,
                                    nn::Activation::kIdentity, &rng);
}

std::vector<const std::vector<int64_t>*> DeepFmModel::FieldColumns(
    const data::CtrBatch& batch) const {
  std::vector<const std::vector<int64_t>*> columns;
  columns.reserve(embed_tables_.size());
  for (const auto& column : batch.user.categorical) {
    columns.push_back(&column);
  }
  for (const auto& column : batch.item_profile.categorical) {
    columns.push_back(&column);
  }
  ATNN_CHECK_EQ(columns.size(), embed_tables_.size());
  return columns;
}

nn::Var DeepFmModel::Logits(const data::CtrBatch& batch) const {
  const auto columns = FieldColumns(batch);

  // Shared field embeddings.
  std::vector<nn::Var> embeddings;
  embeddings.reserve(columns.size());
  for (size_t f = 0; f < columns.size(); ++f) {
    embeddings.push_back(
        nn::EmbeddingLookup(embed_tables_[f]->var(), *columns[f]));
  }

  // First-order term: per-value weights + dense linear part.
  nn::Var first = nn::EmbeddingLookup(first_order_tables_[0]->var(),
                                      *columns[0]);
  for (size_t f = 1; f < columns.size(); ++f) {
    first = nn::Add(first, nn::EmbeddingLookup(first_order_tables_[f]->var(),
                                               *columns[f]));
  }
  std::vector<nn::Var> dense_parts = {nn::Constant(batch.user.numeric),
                                      nn::Constant(
                                          batch.item_profile.numeric)};
  if (config_.use_item_stats) {
    dense_parts.push_back(nn::Constant(batch.item_stats.numeric));
  }
  nn::Var dense = nn::ConcatCols(dense_parts);
  first = nn::Add(first, nn::MatMul(dense, dense_linear_->var()));

  // FM second-order pooling over the shared embeddings:
  // 0.5 * (||sum_f e_f||^2 - sum_f ||e_f||^2) per row.
  nn::Var sum = embeddings[0];
  nn::Var sum_sq = nn::Mul(embeddings[0], embeddings[0]);
  for (size_t f = 1; f < embeddings.size(); ++f) {
    sum = nn::Add(sum, embeddings[f]);
    sum_sq = nn::Add(sum_sq, nn::Mul(embeddings[f], embeddings[f]));
  }
  nn::Var second = nn::Scale(
      nn::Sub(nn::RowwiseDot(sum, sum), nn::RowwiseSum(sum_sq)), 0.5f);

  // Deep component over the concatenated embeddings + dense slab.
  std::vector<nn::Var> deep_parts = embeddings;
  deep_parts.push_back(dense);
  nn::Var deep = deep_->Forward(nn::ConcatCols(deep_parts));

  return nn::AddBias(nn::Add(nn::Add(first, second), deep), bias_->var());
}

std::vector<double> DeepFmModel::PredictCtr(
    const data::CtrBatch& batch) const {
  nn::Var probs = nn::Sigmoid(Logits(batch));
  std::vector<double> result(static_cast<size_t>(probs.rows()));
  for (int64_t r = 0; r < probs.rows(); ++r) {
    result[static_cast<size_t>(r)] = probs.value().at(r, 0);
  }
  return result;
}

void DeepFmModel::CollectParameters(std::vector<nn::Parameter*>* out) {
  for (auto& table : first_order_tables_) out->push_back(table.get());
  for (auto& table : embed_tables_) out->push_back(table.get());
  out->push_back(dense_linear_.get());
  out->push_back(bias_.get());
  deep_->CollectParameters(out);
}

}  // namespace atnn::baselines
