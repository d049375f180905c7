#ifndef ATNN_CORE_ATNN_H_
#define ATNN_CORE_ATNN_H_

#include <memory>
#include <vector>

#include "data/schema.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace atnn::core {

/// How the similarity S(g(X_ip), f_i(X_i)) inside L_s is measured. The
/// paper defines L_s = mean((1 - s_i)^2) over per-sample similarities
/// (cosine); the L2 variant (mean squared vector distance) is provided as
/// an ablation.
enum class SimilarityMode { kCosine, kL2 };

/// Hyper-parameters of the adversarial two-tower model (Section III-C).
struct AtnnConfig {
  /// Architecture shared by the user tower, item encoder and generator
  /// (the paper uses "the same network structure" for all three).
  nn::TowerConfig tower;
  /// Share the item-profile embedding tables between the encoder and the
  /// generator (the paper's multi-task shared-embedding strategy). Turning
  /// this off is the ablation in bench_ablations.
  bool share_embeddings = true;
  SimilarityMode similarity = SimilarityMode::kCosine;
  /// Weight of L_s in the generator objective (paper: 0.1).
  float lambda = 0.1f;
  uint64_t seed = 7;
};

/// Adversarial Two-tower Neural Network. Three towers:
///   - user tower f_u(X_u)                       (user profiles)
///   - item encoder f_i(X_i)  "discriminator"    (profiles + statistics)
///   - item generator g(X_ip)                    (profiles only)
/// Trained per Algorithm 1: the D step minimizes L_i (CTR log loss through
/// the encoder path); the G step minimizes L_g + lambda * L_s where the
/// encoder's vector is the frozen target of the similarity term.
class AtnnModel : public nn::Module {
 public:
  AtnnModel(const data::FeatureSchema& user_schema,
            const data::FeatureSchema& item_profile_schema,
            const data::FeatureSchema& item_stats_schema,
            const AtnnConfig& config);

  /// Deep copy: every parameter is copied into a node of its own, and the
  /// copy's generator path reads the copy's own tables (shared or not).
  /// No gradient or optimizer state is copied.
  AtnnModel(const AtnnModel& other);

  /// f_u(X_u): [batch, d].
  nn::Var UserVector(const data::BlockBatch& user) const;

  /// f_i(X_i): encoder item vector from profiles + statistics.
  nn::Var EncoderItemVector(const data::BlockBatch& item_profile,
                            const data::BlockBatch& item_stats) const;

  /// g(X_ip): generated item vector from profiles only (the cold-start
  /// path; works for items that have never been on the market).
  nn::Var GeneratorItemVector(const data::BlockBatch& item_profile) const;

  /// Encoder-path CTR logits: <f_i, f_u> + b_i.
  nn::Var EncoderLogits(const nn::Var& item_vec,
                        const nn::Var& user_vec) const;

  /// Generator-path CTR logits: <g, f_u> + b_g.
  nn::Var GeneratorLogits(const nn::Var& gen_vec,
                          const nn::Var& user_vec) const;

  /// L_s between the generated vectors and the (frozen) encoder vectors.
  /// Pass the raw encoder Var; the method applies StopGradient internally.
  nn::Var SimilarityLoss(const nn::Var& gen_vec,
                         const nn::Var& encoder_vec) const;

  /// Click probabilities through the encoder path (complete features).
  std::vector<double> PredictCtrEncoder(
      const data::BlockBatch& user, const data::BlockBatch& item_profile,
      const data::BlockBatch& item_stats) const;

  /// Click probabilities through the generator path (profiles only).
  std::vector<double> PredictCtrGenerator(
      const data::BlockBatch& user,
      const data::BlockBatch& item_profile) const;

  /// Parameters updated in the D step: user tower + embeddings, encoder
  /// tower + item-profile embeddings, encoder score bias.
  std::vector<nn::Parameter*> DiscriminatorParameters();

  /// Parameters updated in the G step: generator tower and generator bias,
  /// plus the item-profile embedding tables. When share_embeddings is on,
  /// those tables are the *same* parameters the D step updates — the
  /// coupling is the point of the paper's shared-embedding strategy (the
  /// generator's gradient shapes the representation the encoder reads,
  /// which is also why the paper's ATNN encoder scores slightly below a
  /// pure TNN-DCN on complete features).
  std::vector<nn::Parameter*> GeneratorParameters();

  void CollectParameters(std::vector<nn::Parameter*>* out) override;

  const AtnnConfig& config() const { return config_; }
  int64_t vector_dim() const { return config_.tower.output_dim; }

  /// Current value of the generator-path score bias b_g (used by the
  /// popularity predictor to keep O(1) scores on the same scale as the
  /// generator-path CTR).
  float generator_bias_value() const { return generator_bias_.value().scalar(); }

  /// Read-only structure access for the offline quantizer: the embedding
  /// bag and tower the generator path g(X_ip) actually runs through (the
  /// shared item-profile bag when share_embeddings is on, the generator's
  /// own bag otherwise).
  const nn::EmbeddingBag& generator_embedding_bag() const {
    return config_.share_embeddings ? *item_profile_bag_ : *generator_bag_;
  }
  const nn::Tower& generator_tower() const { return *generator_tower_; }

 private:
  AtnnConfig config_;
  std::unique_ptr<nn::EmbeddingBag> user_bag_;
  std::unique_ptr<nn::EmbeddingBag> item_profile_bag_;
  /// Present only when share_embeddings is false.
  std::unique_ptr<nn::EmbeddingBag> generator_bag_;
  std::unique_ptr<nn::Tower> user_tower_;
  std::unique_ptr<nn::Tower> encoder_tower_;
  std::unique_ptr<nn::Tower> generator_tower_;
  nn::Parameter encoder_bias_;    // [1,1]
  nn::Parameter generator_bias_;  // [1,1]
};

}  // namespace atnn::core

#endif  // ATNN_CORE_ATNN_H_
