#include "data/schema.h"

#include <cstring>

namespace atnn::data {

FeatureSchema::FeatureSchema(std::vector<FeatureSpec> features)
    : features_(std::move(features)) {
  for (size_t i = 0; i < features_.size(); ++i) {
    const FeatureSpec& spec = features_[i];
    if (spec.kind == FeatureKind::kCategorical) {
      ATNN_CHECK(spec.vocab_size > 0) << "feature " << spec.name;
      ATNN_CHECK(spec.embed_dim > 0) << "feature " << spec.name;
      categorical_indices_.push_back(i);
    } else {
      numeric_indices_.push_back(i);
    }
  }
}

int64_t FeatureSchema::TotalEmbedDim() const {
  int64_t total = 0;
  for (size_t idx : categorical_indices_) total += features_[idx].embed_dim;
  return total;
}

EntityTable::EntityTable(SchemaPtr schema, int64_t num_rows)
    : schema_(std::move(schema)),
      num_rows_(num_rows),
      numeric_(num_rows, static_cast<int64_t>(schema_->num_numeric())) {
  ATNN_CHECK(schema_ != nullptr);
  ATNN_CHECK(num_rows >= 0);
  categorical_.resize(schema_->num_categorical());
  for (auto& column : categorical_) {
    column.assign(static_cast<size_t>(num_rows), 0);
  }
}

void EntityTable::set_categorical(size_t field, int64_t row, int64_t value) {
  ATNN_DCHECK(field < categorical_.size());
  const int64_t vocab = schema_->categorical_spec(field).vocab_size;
  ATNN_CHECK(value >= 0 && value < vocab)
      << "value " << value << " out of vocab " << vocab << " for field "
      << schema_->categorical_spec(field).name;
  categorical_[field][static_cast<size_t>(row)] = value;
}

namespace {

/// The one gather loop of GatherBlock and GatherBlockInto: sizes each id
/// column of `categorical` (already one per field) to the batch and fills
/// it, then copies each numeric row into `numeric`, [rows, num_numeric].
void GatherRows(const EntityTable& table, std::span<const int64_t> rows,
                std::vector<std::vector<int64_t>>* categorical,
                float* numeric) {
  for (size_t f = 0; f < categorical->size(); ++f) {
    const std::vector<int64_t>& source = table.categorical_column(f);
    std::vector<int64_t>& column = (*categorical)[f];
    column.resize(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      column[r] = source[static_cast<size_t>(rows[r])];
    }
  }
  const auto cols = static_cast<size_t>(table.schema().num_numeric());
  if (cols == 0) return;
  const float* source = table.numeric_block().data();
  for (size_t r = 0; r < rows.size(); ++r) {
    ATNN_DCHECK(rows[r] >= 0 && rows[r] < table.num_rows());
    std::memcpy(numeric + r * cols,
                source + static_cast<size_t>(rows[r]) * cols,
                cols * sizeof(float));
  }
}

}  // namespace

BlockBatch GatherBlock(const EntityTable& table,
                       std::span<const int64_t> rows) {
  const FeatureSchema& schema = table.schema();
  BlockBatch batch;
  batch.categorical.resize(schema.num_categorical());
  batch.numeric = nn::Tensor(static_cast<int64_t>(rows.size()),
                             static_cast<int64_t>(schema.num_numeric()));
  GatherRows(table, rows, &batch.categorical, batch.numeric.data());
  return batch;
}

void GatherBlockInto(const EntityTable& table, std::span<const int64_t> rows,
                     BlockBuffer* out) {
  const FeatureSchema& schema = table.schema();
  out->rows = static_cast<int64_t>(rows.size());
  out->numeric_cols = static_cast<int64_t>(schema.num_numeric());
  out->categorical.resize(schema.num_categorical());
  const size_t numeric_size = rows.size() * schema.num_numeric();
  if (out->numeric.size() < numeric_size) out->numeric.resize(numeric_size);
  GatherRows(table, rows, &out->categorical, out->numeric.data());
}

EntityTable SliceRows(const EntityTable& table,
                      std::span<const int64_t> rows) {
  const FeatureSchema& schema = table.schema();
  EntityTable slice(table.schema_ptr(), static_cast<int64_t>(rows.size()));
  for (int64_t local = 0; local < slice.num_rows(); ++local) {
    const int64_t src = rows[static_cast<size_t>(local)];
    ATNN_CHECK(src >= 0 && src < table.num_rows())
        << "SliceRows: row " << src << " outside table of "
        << table.num_rows();
    for (size_t f = 0; f < schema.num_categorical(); ++f) {
      slice.set_categorical(f, local, table.categorical(f, src));
    }
    for (size_t f = 0; f < schema.num_numeric(); ++f) {
      slice.set_numeric(f, local, table.numeric(f, src));
    }
  }
  return slice;
}

}  // namespace atnn::data
