#ifndef ATNN_NN_LAYERS_H_
#define ATNN_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "nn/parameter.h"

namespace atnn::nn {

// Activation lives in ops.h (DenseAffine needs it below the layer level).

/// Fully connected layer y = act(x W + b) with W [in, out], b [1, out].
class Dense : public Module {
 public:
  Dense(const std::string& name, int64_t in_dim, int64_t out_dim,
        Activation activation, Rng* rng);

  Var Forward(const Var& x) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  int64_t in_dim() const { return weight_.rows(); }
  int64_t out_dim() const { return weight_.cols(); }

  /// Read-only weight access for offline consumers (the quantizer reads
  /// trained weights without touching the autograd graph).
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }
  Activation activation() const { return activation_; }

 private:
  Parameter weight_;
  Parameter bias_;
  Activation activation_;
};

/// Stack of Dense layers. dims = {in, h1, ..., out}. Hidden layers are
/// ReLU; the last layer uses `output_activation`.
class Mlp : public Module {
 public:
  Mlp(const std::string& name, const std::vector<int64_t>& dims,
      Activation output_activation, Rng* rng);

  Var Forward(const Var& x) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  int64_t in_dim() const;
  int64_t out_dim() const;

  const std::vector<Dense>& layers() const { return layers_; }

 private:
  std::vector<Dense> layers_;
};

/// DCN cross network (Wang et al., ADKDD'17): per layer l,
///   x_{l+1} = x_0 * (x_l^T w_l) + b_l + x_l
/// with w_l [d,1], b_l [1,d]. Learns explicit bounded-degree feature
/// crosses; depth L captures crosses of degree L+1.
class CrossNetwork : public Module {
 public:
  CrossNetwork(const std::string& name, int64_t dim, int num_layers, Rng* rng);

  Var Forward(const Var& x0) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  int num_layers() const { return static_cast<int>(weights_.size()); }
  int64_t dim() const { return dim_; }

  const Parameter& weight(int layer) const { return weights_[layer]; }
  const Parameter& bias(int layer) const { return biases_[layer]; }

 private:
  int64_t dim_;
  std::vector<Parameter> weights_;
  std::vector<Parameter> biases_;
};

/// Which architecture a tower uses. The paper compares fully connected
/// towers (TNN-FC) against Deep & Cross towers (TNN-DCN / ATNN).
enum class TowerKind { kFullyConnected, kDeepCross };

/// Configuration shared by the user tower, item encoder and item generator.
struct TowerConfig {
  TowerKind kind = TowerKind::kDeepCross;
  /// Widths of the deep branch, e.g. {256, 256, 256} (paper: 256x3).
  std::vector<int64_t> deep_dims = {64, 64};
  /// Number of cross layers (paper setting: dims 512/256/128 corresponds to
  /// a 3-deep cross stack over the embedding concat).
  int cross_layers = 3;
  /// Output embedding dimension (paper: 128).
  int64_t output_dim = 32;
};

/// One tower: input features -> representation vector. The deep layers are
/// ReLU and the head is identity. Deep & Cross:
/// concat(cross(x), deep(x)) -> Dense(out_dim). Fully connected: deep(x)
/// -> Dense(out_dim).
class Tower : public Module {
 public:
  Tower(const std::string& name, int64_t input_dim, const TowerConfig& config,
        Rng* rng);

  /// Deep copy, like every layer here: each Parameter gets its own node.
  Tower(const Tower& other);

  Var Forward(const Var& x) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  int64_t input_dim() const { return input_dim_; }
  int64_t output_dim() const { return config_.output_dim; }
  const TowerConfig& config() const { return config_; }

  /// Structure access for the quantizer: the deep stack, the optional
  /// cross network (null for kFullyConnected), and the output head.
  const Mlp& deep() const { return deep_; }
  const CrossNetwork* cross() const { return cross_.get(); }
  const Dense& head() const { return head_; }

 private:
  int64_t input_dim_;
  TowerConfig config_;
  std::unique_ptr<CrossNetwork> cross_;  // null for kFullyConnected
  Mlp deep_;
  Dense head_;
};

/// One categorical field's embedding table; see EmbeddingBag.
struct EmbeddingFieldSpec {
  std::string name;
  int64_t vocab_size = 0;
  int64_t embed_dim = 0;
  /// When > 0, the table has `hash_buckets` rows and ids are hashed into
  /// them (feature hashing). This accepts *any* non-negative id — the
  /// production answer to unbounded vocabularies (new sellers and brands
  /// appear every day); collisions are the accepted trade-off. When 0, ids
  /// must lie in [0, vocab_size).
  int64_t hash_buckets = 0;
};

/// Embedding tables for a list of categorical fields plus an optional dense
/// block, producing the concatenated input of a tower:
///   [emb(field_0) | emb(field_1) | ... | dense_features]
/// Tables can be shared across modules (the paper shares the item-profile
/// embeddings between the encoder and the generator) by passing the same
/// EmbeddingBag instance via shared_ptr.
class EmbeddingBag : public Module {
 public:
  EmbeddingBag(const std::string& name,
               const std::vector<EmbeddingFieldSpec>& fields, Rng* rng);

  /// ids[f] is the id batch for field f; all fields share the batch size.
  /// `dense` is an optional [batch, k] constant block appended at the end
  /// (pass an empty tensor to skip).
  Var Forward(const std::vector<std::vector<int64_t>>& ids,
              const Tensor& dense) const;

  void CollectParameters(std::vector<Parameter*>* out) override;

  /// Output width given a dense block of `dense_cols` columns.
  int64_t OutputDim(int64_t dense_cols) const;

  size_t num_fields() const { return tables_.size(); }
  const EmbeddingFieldSpec& field(size_t i) const { return fields_[i]; }
  const Parameter& table(size_t i) const { return tables_[i]; }

 private:
  std::vector<EmbeddingFieldSpec> fields_;
  std::vector<Parameter> tables_;
};

}  // namespace atnn::nn

#endif  // ATNN_NN_LAYERS_H_
