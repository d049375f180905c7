#ifndef ATNN_DATA_SCHEMA_H_
#define ATNN_DATA_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "nn/tensor.h"

namespace atnn::data {

enum class FeatureKind { kCategorical, kNumeric };

/// Declaration of one raw feature. Categorical features carry a vocabulary
/// size and the embedding width used when feeding a neural tower (the paper
/// maps e.g. user id -> 16 dims, item category -> 6 dims).
struct FeatureSpec {
  std::string name;
  FeatureKind kind = FeatureKind::kNumeric;
  /// Number of distinct values; categorical only.
  int64_t vocab_size = 0;
  /// Embedding width when used in a neural tower; categorical only.
  int64_t embed_dim = 0;

  static FeatureSpec Categorical(std::string name, int64_t vocab_size,
                                 int64_t embed_dim) {
    FeatureSpec spec;
    spec.name = std::move(name);
    spec.kind = FeatureKind::kCategorical;
    spec.vocab_size = vocab_size;
    spec.embed_dim = embed_dim;
    return spec;
  }
  static FeatureSpec Numeric(std::string name) {
    FeatureSpec spec;
    spec.name = std::move(name);
    spec.kind = FeatureKind::kNumeric;
    return spec;
  }
};

/// Ordered list of feature declarations for one feature block (user
/// profile, item profile or item statistics).
class FeatureSchema {
 public:
  FeatureSchema() = default;
  explicit FeatureSchema(std::vector<FeatureSpec> features);

  const std::vector<FeatureSpec>& features() const { return features_; }
  size_t num_features() const { return features_.size(); }
  size_t num_categorical() const { return categorical_indices_.size(); }
  size_t num_numeric() const { return numeric_indices_.size(); }

  /// Indices (into features()) of the categorical / numeric features, in
  /// declaration order. Columnar tables store the two groups separately.
  const std::vector<size_t>& categorical_indices() const {
    return categorical_indices_;
  }
  const std::vector<size_t>& numeric_indices() const {
    return numeric_indices_;
  }

  /// Spec of the c-th categorical feature.
  const FeatureSpec& categorical_spec(size_t c) const {
    return features_[categorical_indices_[c]];
  }

  /// Total embedding width of all categorical features.
  int64_t TotalEmbedDim() const;

  /// Width of a tower input assembled from this schema:
  /// TotalEmbedDim() + num_numeric().
  int64_t TowerInputDim() const {
    return TotalEmbedDim() + static_cast<int64_t>(num_numeric());
  }

 private:
  std::vector<FeatureSpec> features_;
  std::vector<size_t> categorical_indices_;
  std::vector<size_t> numeric_indices_;
};

/// Columnar feature storage for a set of entities (users, items or
/// restaurants) under one schema. Categorical values are ids in
/// [0, vocab_size); numeric values are raw floats (normalize before
/// training — see normalize.h).
using SchemaPtr = std::shared_ptr<const FeatureSchema>;

class EntityTable {
 public:
  EntityTable() = default;
  EntityTable(SchemaPtr schema, int64_t num_rows);

  const FeatureSchema& schema() const { return *schema_; }
  int64_t num_rows() const { return num_rows_; }

  int64_t categorical(size_t field, int64_t row) const {
    ATNN_DCHECK(field < categorical_.size());
    return categorical_[field][static_cast<size_t>(row)];
  }
  void set_categorical(size_t field, int64_t row, int64_t value);

  float numeric(size_t field, int64_t row) const {
    return numeric_.at(row, static_cast<int64_t>(field));
  }
  void set_numeric(size_t field, int64_t row, float value) {
    numeric_.at(row, static_cast<int64_t>(field)) = value;
  }

  /// The dense numeric block, [num_rows, num_numeric].
  const nn::Tensor& numeric_block() const { return numeric_; }
  nn::Tensor* mutable_numeric_block() { return &numeric_; }

  /// Full column of one categorical field.
  const std::vector<int64_t>& categorical_column(size_t field) const {
    return categorical_[field];
  }

  const SchemaPtr& schema_ptr() const { return schema_; }

 private:
  SchemaPtr schema_;
  int64_t num_rows_ = 0;
  std::vector<std::vector<int64_t>> categorical_;  // [field][row]
  nn::Tensor numeric_;                             // [row, field]
};

/// Gathered model input for one feature block of a mini-batch: per-field
/// categorical id vectors plus the dense numeric slab. This is exactly the
/// shape nn::EmbeddingBag::Forward consumes.
struct BlockBatch {
  std::vector<std::vector<int64_t>> categorical;  // [field][row]
  nn::Tensor numeric;                             // [row, num_numeric]

  int64_t rows() const {
    return numeric.rows() > 0
               ? numeric.rows()
               : (categorical.empty()
                      ? 0
                      : static_cast<int64_t>(categorical[0].size()));
  }
};

/// Gathers the given entity rows into a BlockBatch. Takes a view so hot
/// loops (shuffle-then-batch training epochs) can hand out slices of one
/// shuffled index vector without materializing a fresh vector per batch.
BlockBatch GatherBlock(const EntityTable& table, std::span<const int64_t> rows);

/// Brace-list convenience (std::span gains this ctor only in C++26).
inline BlockBatch GatherBlock(const EntityTable& table,
                              std::initializer_list<int64_t> rows) {
  return GatherBlock(table, std::span<const int64_t>(rows.begin(),
                                                     rows.size()));
}

/// A gather destination refilled in place batch after batch: the per-field
/// id columns of a BlockBatch plus the numeric rows in a flat buffer that
/// never shrinks. Once it has held the largest batch it will be asked for,
/// GatherBlockInto allocates nothing, whatever the batch size.
struct BlockBuffer {
  std::vector<std::vector<int64_t>> categorical;  // [field][row]
  /// Row-major [rows, numeric_cols] in its first rows * numeric_cols
  /// entries; what lies past them is left over from larger batches.
  std::vector<float> numeric;
  int64_t rows = 0;
  int64_t numeric_cols = 0;
};

/// Gathers the given entity rows into `out`, reusing its storage: the same
/// ids and numeric values GatherBlock returns, each numeric row copied
/// with one memcpy.
void GatherBlockInto(const EntityTable& table, std::span<const int64_t> rows,
                     BlockBuffer* out);

/// Materializes the given rows of `table` as a standalone EntityTable under
/// the same schema: slice row i is table row rows[i]. Rows may repeat or
/// reorder. The sharded serving layer uses this to give every shard its own
/// catalog slice (local row -> global row mapping kept by the caller).
/// Checked abort on an out-of-range row — callers partition rows they just
/// enumerated, so a bad index is a programmer error, not input.
EntityTable SliceRows(const EntityTable& table,
                      std::span<const int64_t> rows);

}  // namespace atnn::data

#endif  // ATNN_DATA_SCHEMA_H_
