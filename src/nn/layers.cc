#include "nn/layers.h"

namespace atnn::nn {

Var Activate(const Var& x, Activation activation) {
  switch (activation) {
    case Activation::kIdentity:
      return x;
    case Activation::kRelu:
      return Relu(x);
    case Activation::kSigmoid:
      return Sigmoid(x);
    case Activation::kTanh:
      return Tanh(x);
    case Activation::kLeakyRelu:
      return LeakyRelu(x);
  }
  ATNN_CHECK(false) << "unknown activation";
  return x;
}

Dense::Dense(const std::string& name, int64_t in_dim, int64_t out_dim,
             Activation activation, Rng* rng)
    : weight_(name + ".weight",
              activation == Activation::kRelu
                  ? HeNormal(in_dim, out_dim, rng)
                  : XavierUniform(in_dim, out_dim, rng)),
      bias_(name + ".bias", Tensor::Zeros(1, out_dim)),
      activation_(activation) {
  ATNN_CHECK(in_dim > 0 && out_dim > 0);
}

Var Dense::Forward(const Var& x) const {
  ATNN_CHECK_EQ(x.cols(), in_dim());
  // One fused node (GEMM + in-register bias/activation epilogue) for the
  // activations the kernel layer fuses; bitwise-identical to the three-node
  // composition below on the scalar backend.
  if (FusedEpiloguesEnabled() &&
      (activation_ == Activation::kIdentity ||
       activation_ == Activation::kRelu ||
       activation_ == Activation::kSigmoid)) {
    return DenseAffine(x, weight_.var(), bias_.var(), activation_);
  }
  return Activate(AddBias(MatMul(x, weight_.var()), bias_.var()), activation_);
}

void Dense::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  out->push_back(&bias_);
}

Mlp::Mlp(const std::string& name, const std::vector<int64_t>& dims,
         Activation hidden_activation, Activation output_activation,
         Rng* rng) {
  ATNN_CHECK(dims.size() >= 2) << "Mlp needs at least input and output dims";
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(name + ".layer" + std::to_string(i), dims[i],
                         dims[i + 1],
                         last ? output_activation : hidden_activation, rng);
  }
}

Var Mlp::Forward(const Var& x) const {
  Var h = x;
  for (const Dense& layer : layers_) h = layer.Forward(h);
  return h;
}

void Mlp::CollectParameters(std::vector<Parameter*>* out) {
  for (Dense& layer : layers_) layer.CollectParameters(out);
}

int64_t Mlp::in_dim() const { return layers_.front().in_dim(); }
int64_t Mlp::out_dim() const { return layers_.back().out_dim(); }

CrossNetwork::CrossNetwork(const std::string& name, int64_t dim,
                           int num_layers, Rng* rng)
    : dim_(dim) {
  ATNN_CHECK(dim > 0);
  ATNN_CHECK(num_layers >= 1);
  weights_.reserve(num_layers);
  biases_.reserve(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    weights_.emplace_back(name + ".w" + std::to_string(l),
                          XavierUniform(dim, 1, rng));
    biases_.emplace_back(name + ".b" + std::to_string(l),
                         Tensor::Zeros(1, dim));
  }
}

Var CrossNetwork::Forward(const Var& x0) const {
  ATNN_CHECK_EQ(x0.cols(), dim_);
  Var x = x0;
  for (size_t l = 0; l < weights_.size(); ++l) {
    // x_{l+1} = x0 * (x_l w_l) + b_l + x_l
    Var xw = MatMul(x, weights_[l].var());             // [m, 1]
    Var crossed = ScaleRows(x0, xw);                   // [m, d]
    x = Add(AddBias(crossed, biases_[l].var()), x);    // [m, d]
  }
  return x;
}

void CrossNetwork::CollectParameters(std::vector<Parameter*>* out) {
  for (size_t l = 0; l < weights_.size(); ++l) {
    out->push_back(&weights_[l]);
    out->push_back(&biases_[l]);
  }
}

LayerNormLayer::LayerNormLayer(const std::string& name, int64_t dim,
                               float eps)
    : gamma_(name + ".gamma", Tensor::Ones(1, dim)),
      beta_(name + ".beta", Tensor::Zeros(1, dim)),
      eps_(eps) {
  ATNN_CHECK(dim > 0);
}

Var LayerNormLayer::Forward(const Var& x) const {
  return LayerNorm(x, gamma_.var(), beta_.var(), eps_);
}

void LayerNormLayer::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&gamma_);
  out->push_back(&beta_);
}

namespace {

std::vector<int64_t> DeepDims(int64_t input_dim,
                              const std::vector<int64_t>& hidden) {
  std::vector<int64_t> dims;
  dims.reserve(hidden.size() + 1);
  dims.push_back(input_dim);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  return dims;
}

int64_t HeadInputDim(int64_t input_dim, const TowerConfig& config) {
  const int64_t deep_out = config.deep_dims.back();
  if (config.kind == TowerKind::kDeepCross) {
    return input_dim + deep_out;  // concat(cross_out [d], deep_out)
  }
  return deep_out;
}

}  // namespace

Tower::Tower(const std::string& name, int64_t input_dim,
             const TowerConfig& config, Rng* rng)
    : input_dim_(input_dim),
      config_(config),
      cross_(config.kind == TowerKind::kDeepCross
                 ? std::make_unique<CrossNetwork>(name + ".cross", input_dim,
                                                  config.cross_layers, rng)
                 : nullptr),
      deep_(name + ".deep", DeepDims(input_dim, config.deep_dims),
            config.hidden_activation, config.hidden_activation, rng),
      head_(name + ".head", HeadInputDim(input_dim, config), config.output_dim,
            Activation::kIdentity, rng) {
  ATNN_CHECK(!config.deep_dims.empty());
}

Var Tower::Forward(const Var& x) const {
  ATNN_CHECK_EQ(x.cols(), input_dim_);
  Var deep_out = deep_.Forward(x);
  if (cross_ != nullptr) {
    Var cross_out = cross_->Forward(x);
    return head_.Forward(ConcatCols({cross_out, deep_out}));
  }
  return head_.Forward(deep_out);
}

void Tower::CollectParameters(std::vector<Parameter*>* out) {
  if (cross_ != nullptr) cross_->CollectParameters(out);
  deep_.CollectParameters(out);
  head_.CollectParameters(out);
}

EmbeddingBag::EmbeddingBag(const std::string& name,
                           const std::vector<EmbeddingFieldSpec>& fields,
                           Rng* rng)
    : fields_(fields) {
  tables_.reserve(fields_.size());
  for (const EmbeddingFieldSpec& field : fields_) {
    ATNN_CHECK(field.embed_dim > 0) << "bad spec for field " << field.name;
    const int64_t rows =
        field.hash_buckets > 0 ? field.hash_buckets : field.vocab_size;
    ATNN_CHECK(rows > 0) << "bad spec for field " << field.name;
    // Small-stddev normal init is the common choice for CTR embeddings.
    tables_.emplace_back(name + ".emb." + field.name,
                         NormalInit(rows, field.embed_dim, 0.05f, rng));
  }
}

Var EmbeddingBag::Forward(const std::vector<std::vector<int64_t>>& ids,
                          const Tensor& dense) const {
  ATNN_CHECK_EQ(ids.size(), tables_.size());
  // Arena-backed scratch (heap-backed outside a scope) so the per-batch
  // forward performs no heap allocations.
  std::vector<Var, ArenaStdAllocator<Var>> parts;
  parts.reserve(tables_.size() + 1);
  size_t batch = 0;
  std::vector<int64_t, ArenaStdAllocator<int64_t>> hashed;
  for (size_t f = 0; f < tables_.size(); ++f) {
    if (f == 0) {
      batch = ids[f].size();
    } else {
      ATNN_CHECK_EQ(ids[f].size(), batch);
    }
    if (fields_[f].hash_buckets > 0) {
      // Feature hashing: any non-negative id maps to a bucket.
      hashed.resize(ids[f].size());
      for (size_t i = 0; i < ids[f].size(); ++i) {
        ATNN_DCHECK_GE(ids[f][i], 0);
        hashed[i] = static_cast<int64_t>(
            SplitMix64(static_cast<uint64_t>(ids[f][i])) %
            static_cast<uint64_t>(fields_[f].hash_buckets));
      }
      parts.push_back(EmbeddingLookup(tables_[f].var(), hashed));
    } else {
      parts.push_back(EmbeddingLookup(tables_[f].var(), ids[f]));
    }
  }
  if (!dense.empty()) {
    ATNN_CHECK_EQ(dense.rows(), static_cast<int64_t>(batch));
    parts.push_back(Constant(ScratchCopy(dense)));
  }
  return ConcatCols(std::span<const Var>(parts.data(), parts.size()));
}

void EmbeddingBag::CollectParameters(std::vector<Parameter*>* out) {
  for (Parameter& table : tables_) out->push_back(&table);
}

int64_t EmbeddingBag::OutputDim(int64_t dense_cols) const {
  int64_t total = dense_cols;
  for (const EmbeddingFieldSpec& field : fields_) total += field.embed_dim;
  return total;
}

}  // namespace atnn::nn
