#include "quant/quantized_generator.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "core/generator_plan.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/ops.h"

namespace atnn::quant {

namespace {

using nn::kernels::Int8ColumnSums;
using nn::kernels::Kernels;
using nn::kernels::PackInt8B;
using nn::kernels::RoundUpK4;

float SafeScale(float absmax, float levels) {
  // Zero absmax (an all-zero row, a never-touched hash bucket, a dead ReLU
  // column) must not produce scale 0: dequantization would then be 0 * 0
  // everywhere — fine — but Validate() could no longer distinguish "empty
  // row" from "corrupt artifact", and a later divide by the scale would
  // produce Inf/NaN. Scale 1 encodes the all-zero row exactly.
  if (!(absmax > 0.0f)) return 1.0f;
  return absmax / levels;
}

int8_t QuantizeWeight(float value, float scale) {
  float q = std::nearbyintf(value / scale);
  if (q > 127.0f) q = 127.0f;
  if (q < -127.0f) q = -127.0f;
  return static_cast<int8_t>(q);
}

/// Per-row symmetric int8 codes for a [rows, cols] fp32 matrix.
QuantizedRowMatrix QuantizeRows(const nn::Tensor& t) {
  QuantizedRowMatrix out;
  out.rows = t.rows();
  out.cols = t.cols();
  out.data.resize(static_cast<size_t>(out.rows * out.cols));
  out.scales.resize(static_cast<size_t>(out.rows));
  for (int64_t r = 0; r < out.rows; ++r) {
    const float* row = t.row_ptr(r);
    float absmax = 0.0f;
    for (int64_t c = 0; c < out.cols; ++c) {
      const float a = std::fabs(row[c]);
      if (a > absmax) absmax = a;
    }
    const float scale = SafeScale(absmax, 127.0f);
    out.scales[static_cast<size_t>(r)] = scale;
    int8_t* dst = out.data.data() + r * out.cols;
    for (int64_t c = 0; c < out.cols; ++c) {
      dst[c] = QuantizeWeight(row[c], scale);
    }
  }
  return out;
}

Bf16Matrix ToBf16(const nn::Tensor& t) {
  Bf16Matrix out;
  out.rows = t.rows();
  out.cols = t.cols();
  out.data.resize(static_cast<size_t>(t.numel()));
  if (!t.empty()) {
    Kernels().f32_to_bf16(t.numel(), t.data(), out.data.data());
  }
  return out;
}

std::vector<float> RowToVector(const nn::Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

/// rows * cols, or SIZE_MAX when either is negative or the product
/// overflows, so a corrupt shape never matches a real buffer's size.
size_t CheckedCount(int64_t rows, int64_t cols) {
  int64_t count = 0;
  if (rows < 0 || cols < 0 || __builtin_mul_overflow(rows, cols, &count)) {
    return SIZE_MAX;
  }
  return static_cast<size_t>(count);
}

void WriteBf16(BinaryWriter* writer, const Bf16Matrix& m) {
  writer->WriteI64(m.rows);
  writer->WriteI64(m.cols);
  writer->WriteString(std::string(
      reinterpret_cast<const char*>(m.data.data()), m.data.size() * 2));
}

Status ReadBf16(BinaryReader* reader, Bf16Matrix* m) {
  ATNN_RETURN_IF_ERROR(reader->ReadI64(&m->rows));
  ATNN_RETURN_IF_ERROR(reader->ReadI64(&m->cols));
  std::string bytes;
  ATNN_RETURN_IF_ERROR(reader->ReadString(&bytes));
  const size_t count = CheckedCount(m->rows, m->cols);
  if (count == SIZE_MAX || bytes.size() != count * 2) {
    return Status::Corruption("bf16 matrix size mismatch");
  }
  m->data.resize(bytes.size() / 2);
  std::memcpy(m->data.data(), bytes.data(), bytes.size());
  return Status::OK();
}

void WriteInt8Blob(BinaryWriter* writer, const std::vector<int8_t>& v) {
  writer->WriteString(std::string(
      reinterpret_cast<const char*>(v.data()), v.size()));
}

Status ReadInt8Blob(BinaryReader* reader, size_t expected,
                    std::vector<int8_t>* v) {
  std::string bytes;
  ATNN_RETURN_IF_ERROR(reader->ReadString(&bytes));
  if (bytes.size() != expected) {
    return Status::Corruption("int8 blob size mismatch");
  }
  v->resize(bytes.size());
  std::memcpy(v->data(), bytes.data(), bytes.size());
  return Status::OK();
}

Status CheckFiniteNonzeroScales(const std::vector<float>& scales,
                                const std::string& what) {
  for (float s : scales) {
    if (!std::isfinite(s) || s == 0.0f) {
      return Status::DataLoss("non-finite or zero scale in " + what);
    }
  }
  return Status::OK();
}

/// The tape's embedding gather aborts on an id it cannot read, so a batch
/// the generator cannot read becomes a Status before the forward runs.
Status CheckCalibrationBatch(const nn::EmbeddingBag& bag, int64_t numeric_cols,
                             const data::BlockBatch& batch) {
  if (batch.rows() == 0 || batch.categorical.size() != bag.num_fields() ||
      (numeric_cols > 0 && batch.numeric.cols() != numeric_cols)) {
    return Status::InvalidArgument(
        "int8 calibration needs a non-empty batch of the generator's shape");
  }
  for (size_t f = 0; f < bag.num_fields(); ++f) {
    for (const int64_t id : batch.categorical[f]) {
      if (id < 0) {
        return Status::InvalidArgument("negative id for field " +
                                       bag.field(f).name);
      }
      if (bag.field(f).hash_buckets == 0 && id >= bag.table(f).value().rows()) {
        return Status::OutOfRange("id out of vocab for field " +
                                  bag.field(f).name);
      }
    }
  }
  return Status::OK();
}

Status CheckFinite(const std::vector<float>& values,
                   const std::string& what) {
  for (float v : values) {
    if (!std::isfinite(v)) {
      return Status::DataLoss("non-finite value in " + what);
    }
  }
  return Status::OK();
}

}  // namespace

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kBf16:
      return "bf16";
    case Precision::kInt8:
      return "int8";
  }
  return "unknown";
}

StatusOr<Precision> ParsePrecision(const std::string& name) {
  if (name == "fp32") return Precision::kFp32;
  if (name == "bf16") return Precision::kBf16;
  if (name == "int8") return Precision::kInt8;
  return Status::InvalidArgument("unknown precision '" + name +
                                 "' (expected fp32, bf16 or int8)");
}

StatusOr<QuantizedGenerator> QuantizedGenerator::Build(
    const core::AtnnModel& model, const data::BlockBatch& calibration,
    Precision precision) {
  if (precision == Precision::kFp32) {
    return Status::InvalidArgument(
        "fp32 needs no quantized artifact; serve the model directly");
  }
  const nn::EmbeddingBag& bag = model.generator_embedding_bag();
  const nn::Tower& tower = model.generator_tower();

  QuantizedGenerator g;
  g.precision_ = precision;
  g.input_dim_ = tower.input_dim();
  g.numeric_cols_ = g.input_dim_ - bag.OutputDim(0);
  g.vector_dim_ = tower.output_dim();
  if (g.numeric_cols_ < 0) {
    return Status::Internal("tower narrower than its embedding concat");
  }

  // Embedding tables.
  g.fields_.reserve(bag.num_fields());
  for (size_t f = 0; f < bag.num_fields(); ++f) {
    const nn::EmbeddingFieldSpec& spec = bag.field(f);
    const nn::Tensor& table = bag.table(f).value();
    if (!table.AllFinite()) {
      return Status::DataLoss("non-finite embedding table for field " +
                              spec.name);
    }
    QuantizedField field;
    field.name = spec.name;
    field.hash_buckets = spec.hash_buckets;
    field.embed_dim = spec.embed_dim;
    if (precision == Precision::kInt8) {
      field.rows_q = QuantizeRows(table);
    } else {
      field.rows_bf = ToBf16(table);
    }
    g.fields_.push_back(std::move(field));
  }

  // Dense stack structure + weight quantization; activation scales start at
  // 1 and are calibrated below for int8.
  auto build_dense = [&](const nn::Dense& dense,
                         QuantizedDense* out) -> Status {
    const nn::Tensor& w = dense.weight().value();
    const nn::Tensor& b = dense.bias().value();
    if (!w.AllFinite() || !b.AllFinite()) {
      return Status::DataLoss("non-finite dense weights");
    }
    out->in_dim = w.rows();
    out->out_dim = w.cols();
    out->activation = dense.activation();
    out->bias = RowToVector(b);
    if (precision == Precision::kInt8) {
      // Per-column symmetric: one scale per output unit, so a single wide
      // column cannot flatten the resolution of every other column.
      out->codes.resize(static_cast<size_t>(w.rows() * w.cols()));
      out->w_scales.resize(static_cast<size_t>(w.cols()));
      for (int64_t c = 0; c < w.cols(); ++c) {
        float absmax = 0.0f;
        for (int64_t r = 0; r < w.rows(); ++r) {
          const float a = std::fabs(w.at(r, c));
          if (a > absmax) absmax = a;
        }
        const float scale = SafeScale(absmax, 127.0f);
        out->w_scales[static_cast<size_t>(c)] = scale;
        for (int64_t r = 0; r < w.rows(); ++r) {
          out->codes[static_cast<size_t>(r * w.cols() + c)] =
              QuantizeWeight(w.at(r, c), scale);
        }
      }
    } else {
      out->weights_bf = ToBf16(w);
    }
    return Status::OK();
  };

  const std::vector<nn::Dense>& deep_layers = tower.deep().layers();
  g.deep_.resize(deep_layers.size());
  for (size_t i = 0; i < deep_layers.size(); ++i) {
    ATNN_RETURN_IF_ERROR(build_dense(deep_layers[i], &g.deep_[i]));
  }
  ATNN_RETURN_IF_ERROR(build_dense(tower.head(), &g.head_));

  // Cross network stays fp32 (see CrossLayerFp32 comment).
  if (tower.cross() != nullptr) {
    const nn::CrossNetwork& cross = *tower.cross();
    g.cross_.resize(static_cast<size_t>(cross.num_layers()));
    for (int l = 0; l < cross.num_layers(); ++l) {
      g.cross_[static_cast<size_t>(l)].w = RowToVector(cross.weight(l).value());
      g.cross_[static_cast<size_t>(l)].b = RowToVector(cross.bias(l).value());
      ATNN_RETURN_IF_ERROR(CheckFinite(g.cross_[static_cast<size_t>(l)].w,
                                       "cross weights"));
      ATNN_RETURN_IF_ERROR(CheckFinite(g.cross_[static_cast<size_t>(l)].b,
                                       "cross biases"));
    }
  }

  // Static activation-scale calibration (int8 only): each dense layer's
  // input absmax, read off the model's own tape forward (the one the fp32
  // plan reproduces bitwise). 63 levels, not 127: 7-bit activation codes
  // keep gemm_s8's maddubs pair sums below int16 saturation.
  if (precision == Precision::kInt8) {
    ATNN_RETURN_IF_ERROR(
        CheckCalibrationBatch(bag, g.numeric_cols_, calibration));
    const nn::NoGradGuard no_grad;
    const nn::Var x = bag.Forward(
        calibration.categorical,
        g.numeric_cols_ > 0 ? calibration.numeric : nn::Tensor());
    nn::Var cur = x;
    for (size_t i = 0; i < deep_layers.size(); ++i) {
      g.deep_[i].act_scale = SafeScale(cur.value().AbsMax(), 63.0f);
      cur = deep_layers[i].Forward(cur);
    }
    const nn::Var head_in =
        tower.cross() != nullptr
            ? nn::ConcatCols({tower.cross()->Forward(x), cur})
            : cur;
    g.head_.act_scale = SafeScale(head_in.value().AbsMax(), 63.0f);
  }

  g.PackDenseLayers();
  return g;
}

void QuantizedGenerator::PackDenseLayers() {
  auto pack = [](QuantizedDense* d) {
    if (d->codes.empty()) return;  // bf16 artifact
    d->k4 = RoundUpK4(d->in_dim);
    d->packed.assign(static_cast<size_t>(d->k4 * d->out_dim), 0);
    d->colsum.assign(static_cast<size_t>(d->out_dim), 0);
    PackInt8B(d->in_dim, d->out_dim, d->codes.data(), d->packed.data());
    Int8ColumnSums(d->in_dim, d->out_dim, d->codes.data(),
                   d->colsum.data());
  };
  for (QuantizedDense& d : deep_) pack(&d);
  pack(&head_);
}

Status QuantizedGenerator::Validate() const {
  if (precision_ == Precision::kFp32) {
    return Status::DataLoss("quantized artifact claims fp32 precision");
  }
  if (input_dim_ <= 0 || vector_dim_ <= 0 || numeric_cols_ < 0) {
    return Status::DataLoss("quantized artifact has degenerate dimensions");
  }
  int64_t embed_width = 0;
  for (const QuantizedField& field : fields_) {
    const int64_t rows = precision_ == Precision::kInt8 ? field.rows_q.rows
                                                        : field.rows_bf.rows;
    // A table has rows (which bounds embed_dim by the payload below), and a
    // hashed one exactly hash_buckets of them: any other count would let a
    // bucket index past the table.
    if (rows <= 0 || field.hash_buckets < 0 ||
        (field.hash_buckets > 0 && field.hash_buckets != rows)) {
      return Status::DataLoss("field " + field.name +
                              " has no rows or hash_buckets != its rows");
    }
    if (precision_ == Precision::kInt8) {
      const QuantizedRowMatrix& q = field.rows_q;
      if (q.cols != field.embed_dim ||
          q.data.size() != CheckedCount(q.rows, q.cols) ||
          q.scales.size() != static_cast<size_t>(q.rows)) {
        return Status::DataLoss("field " + field.name + " shape mismatch");
      }
      ATNN_RETURN_IF_ERROR(CheckFiniteNonzeroScales(
          q.scales, "field " + field.name));
    } else {
      const Bf16Matrix& b = field.rows_bf;
      if (b.cols != field.embed_dim ||
          b.data.size() != CheckedCount(b.rows, b.cols)) {
        return Status::DataLoss("field " + field.name + " shape mismatch");
      }
    }
    embed_width += field.embed_dim;
  }
  if (numeric_cols_ != input_dim_ - embed_width) {
    return Status::DataLoss("embedding widths do not sum to input_dim");
  }

  auto check_dense = [&](const QuantizedDense& d,
                         int64_t expect_in) -> Status {
    if (d.in_dim != expect_in || d.out_dim <= 0 ||
        d.bias.size() != static_cast<size_t>(d.out_dim)) {
      return Status::DataLoss("dense layer shape mismatch");
    }
    ATNN_RETURN_IF_ERROR(CheckFinite(d.bias, "dense bias"));
    if (precision_ == Precision::kInt8) {
      if (!std::isfinite(d.act_scale) || d.act_scale == 0.0f) {
        return Status::DataLoss("non-finite or zero activation scale");
      }
      if (d.codes.size() != CheckedCount(d.in_dim, d.out_dim) ||
          d.w_scales.size() != static_cast<size_t>(d.out_dim)) {
        return Status::DataLoss("dense int8 payload shape mismatch");
      }
      ATNN_RETURN_IF_ERROR(
          CheckFiniteNonzeroScales(d.w_scales, "dense weight scales"));
    } else {
      if (d.weights_bf.rows != d.in_dim || d.weights_bf.cols != d.out_dim ||
          d.weights_bf.data.size() != CheckedCount(d.in_dim, d.out_dim)) {
        return Status::DataLoss("dense bf16 payload shape mismatch");
      }
    }
    return Status::OK();
  };

  int64_t expect = input_dim_;
  for (const QuantizedDense& d : deep_) {
    ATNN_RETURN_IF_ERROR(check_dense(d, expect));
    expect = d.out_dim;
  }
  const int64_t head_in =
      cross_.empty() ? expect : input_dim_ + expect;
  ATNN_RETURN_IF_ERROR(check_dense(head_, head_in));
  if (head_.out_dim != vector_dim_) {
    return Status::DataLoss("head output width != vector_dim");
  }
  for (const CrossLayerFp32& layer : cross_) {
    if (layer.w.size() != static_cast<size_t>(input_dim_) ||
        layer.b.size() != static_cast<size_t>(input_dim_)) {
      return Status::DataLoss("cross layer width mismatch");
    }
    ATNN_RETURN_IF_ERROR(CheckFinite(layer.w, "cross weights"));
    ATNN_RETURN_IF_ERROR(CheckFinite(layer.b, "cross biases"));
  }
  return Status::OK();
}

namespace {

/// Reads an element count and bounds it by the bytes left, as
/// ReadFloatVector does: every field, dense layer and cross layer starts
/// with two 8-byte values, so a larger count is corrupt — checked before
/// the caller sizes a vector by it.
Status ReadCount(BinaryReader* reader, uint32_t* count) {
  ATNN_RETURN_IF_ERROR(reader->ReadU32(count));
  if (*count > reader->remaining() / (2 * sizeof(int64_t))) {
    return Status::Corruption("element count exceeds buffer");
  }
  return Status::OK();
}

void SerializeDense(BinaryWriter* writer, const QuantizedDense& d,
                    Precision precision) {
  writer->WriteI64(d.in_dim);
  writer->WriteI64(d.out_dim);
  writer->WriteU32(static_cast<uint32_t>(d.activation));
  writer->WriteFloatVector(d.bias);
  writer->WriteF32(d.act_scale);
  if (precision == Precision::kInt8) {
    WriteInt8Blob(writer, d.codes);
    writer->WriteFloatVector(d.w_scales);
  } else {
    WriteBf16(writer, d.weights_bf);
  }
}

Status DeserializeDense(BinaryReader* reader, Precision precision,
                        QuantizedDense* d) {
  ATNN_RETURN_IF_ERROR(reader->ReadI64(&d->in_dim));
  ATNN_RETURN_IF_ERROR(reader->ReadI64(&d->out_dim));
  uint32_t activation = 0;
  ATNN_RETURN_IF_ERROR(reader->ReadU32(&activation));
  if (activation > static_cast<uint32_t>(nn::Activation::kRelu)) {
    return Status::Corruption("bad activation tag");
  }
  d->activation = static_cast<nn::Activation>(activation);
  ATNN_RETURN_IF_ERROR(reader->ReadFloatVector(&d->bias));
  ATNN_RETURN_IF_ERROR(reader->ReadF32(&d->act_scale));
  // Positive dims bound out_dim by the code blob's size, which keeps the
  // packing that follows the read (k4 * out_dim bytes) inside the payload.
  if (d->in_dim <= 0 || d->out_dim <= 0) {
    return Status::Corruption("non-positive dense dimensions");
  }
  if (precision == Precision::kInt8) {
    ATNN_RETURN_IF_ERROR(ReadInt8Blob(
        reader, CheckedCount(d->in_dim, d->out_dim), &d->codes));
    ATNN_RETURN_IF_ERROR(reader->ReadFloatVector(&d->w_scales));
  } else {
    ATNN_RETURN_IF_ERROR(ReadBf16(reader, &d->weights_bf));
  }
  return Status::OK();
}

}  // namespace

void QuantizedGenerator::SerializeTo(BinaryWriter* writer) const {
  writer->WriteU32(kQuantFormatVersion);
  writer->WriteU32(static_cast<uint32_t>(precision_));
  writer->WriteI64(input_dim_);
  writer->WriteI64(numeric_cols_);
  writer->WriteI64(vector_dim_);
  writer->WriteU32(static_cast<uint32_t>(fields_.size()));
  for (const QuantizedField& field : fields_) {
    writer->WriteString(field.name);
    writer->WriteI64(field.hash_buckets);
    writer->WriteI64(field.embed_dim);
    if (precision_ == Precision::kInt8) {
      writer->WriteI64(field.rows_q.rows);
      writer->WriteI64(field.rows_q.cols);
      WriteInt8Blob(writer, field.rows_q.data);
      writer->WriteFloatVector(field.rows_q.scales);
    } else {
      WriteBf16(writer, field.rows_bf);
    }
  }
  writer->WriteU32(static_cast<uint32_t>(deep_.size()));
  for (const QuantizedDense& d : deep_) {
    SerializeDense(writer, d, precision_);
  }
  SerializeDense(writer, head_, precision_);
  writer->WriteU32(static_cast<uint32_t>(cross_.size()));
  for (const CrossLayerFp32& layer : cross_) {
    writer->WriteFloatVector(layer.w);
    writer->WriteFloatVector(layer.b);
  }
}

StatusOr<QuantizedGenerator> QuantizedGenerator::DeserializeFrom(
    BinaryReader* reader) {
  QuantizedGenerator g;
  uint32_t version = 0;
  ATNN_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kQuantFormatVersion) {
    return Status::Corruption("unsupported quant format version " +
                              std::to_string(version));
  }
  uint32_t precision = 0;
  ATNN_RETURN_IF_ERROR(reader->ReadU32(&precision));
  if (precision != static_cast<uint32_t>(Precision::kBf16) &&
      precision != static_cast<uint32_t>(Precision::kInt8)) {
    return Status::Corruption("bad precision tag");
  }
  g.precision_ = static_cast<Precision>(precision);
  ATNN_RETURN_IF_ERROR(reader->ReadI64(&g.input_dim_));
  ATNN_RETURN_IF_ERROR(reader->ReadI64(&g.numeric_cols_));
  ATNN_RETURN_IF_ERROR(reader->ReadI64(&g.vector_dim_));
  uint32_t num_fields = 0;
  ATNN_RETURN_IF_ERROR(ReadCount(reader, &num_fields));
  g.fields_.resize(num_fields);
  for (QuantizedField& field : g.fields_) {
    ATNN_RETURN_IF_ERROR(reader->ReadString(&field.name));
    ATNN_RETURN_IF_ERROR(reader->ReadI64(&field.hash_buckets));
    ATNN_RETURN_IF_ERROR(reader->ReadI64(&field.embed_dim));
    if (g.precision_ == Precision::kInt8) {
      ATNN_RETURN_IF_ERROR(reader->ReadI64(&field.rows_q.rows));
      ATNN_RETURN_IF_ERROR(reader->ReadI64(&field.rows_q.cols));
      if (field.rows_q.rows < 0 || field.rows_q.cols < 0) {
        return Status::Corruption("negative embedding dimensions");
      }
      ATNN_RETURN_IF_ERROR(ReadInt8Blob(
          reader, CheckedCount(field.rows_q.rows, field.rows_q.cols),
          &field.rows_q.data));
      ATNN_RETURN_IF_ERROR(reader->ReadFloatVector(&field.rows_q.scales));
    } else {
      ATNN_RETURN_IF_ERROR(ReadBf16(reader, &field.rows_bf));
    }
  }
  uint32_t num_deep = 0;
  ATNN_RETURN_IF_ERROR(ReadCount(reader, &num_deep));
  g.deep_.resize(num_deep);
  for (QuantizedDense& d : g.deep_) {
    ATNN_RETURN_IF_ERROR(DeserializeDense(reader, g.precision_, &d));
  }
  ATNN_RETURN_IF_ERROR(DeserializeDense(reader, g.precision_, &g.head_));
  uint32_t num_cross = 0;
  ATNN_RETURN_IF_ERROR(ReadCount(reader, &num_cross));
  g.cross_.resize(num_cross);
  for (CrossLayerFp32& layer : g.cross_) {
    ATNN_RETURN_IF_ERROR(reader->ReadFloatVector(&layer.w));
    ATNN_RETURN_IF_ERROR(reader->ReadFloatVector(&layer.b));
  }
  g.PackDenseLayers();
  return g;
}

int64_t QuantizedGenerator::QuantizedByteSize() const {
  BinaryWriter writer;
  SerializeTo(&writer);
  return static_cast<int64_t>(writer.buffer().size());
}

int64_t QuantizedGenerator::Fp32ByteSize() const {
  int64_t elements = 0;
  for (const QuantizedField& field : fields_) {
    const int64_t rows = precision_ == Precision::kInt8 ? field.rows_q.rows
                                                        : field.rows_bf.rows;
    elements += rows * field.embed_dim;
  }
  auto dense_elements = [](const QuantizedDense& d) {
    return d.in_dim * d.out_dim + d.out_dim;
  };
  for (const QuantizedDense& d : deep_) elements += dense_elements(d);
  elements += dense_elements(head_);
  for (const CrossLayerFp32& layer : cross_) {
    elements += static_cast<int64_t>(layer.w.size() + layer.b.size());
  }
  return elements * static_cast<int64_t>(sizeof(float));
}

Status QuantizedGenerator::Save(const std::string& path,
                                const std::string& tag) const {
  BinaryWriter writer;
  writer.WriteString(tag);
  SerializeTo(&writer);
  return writer.FlushToFile(path);
}

StatusOr<QuantizedGenerator> QuantizedGenerator::Load(
    const std::string& path, const std::string& expected_tag) {
  ATNN_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::FromFile(path));
  std::string tag;
  ATNN_RETURN_IF_ERROR(reader.ReadString(&tag));
  if (tag != expected_tag) {
    return Status::InvalidArgument("quant artifact tag '" + tag +
                                   "' does not match expected '" +
                                   expected_tag + "'");
  }
  ATNN_ASSIGN_OR_RETURN(QuantizedGenerator g,
                        QuantizedGenerator::DeserializeFrom(&reader));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after quant artifact");
  }
  return g;
}

void QuantizedGenerator::CorruptScaleForTest(float value) {
  if (!fields_.empty() && !fields_[0].rows_q.scales.empty()) {
    fields_[0].rows_q.scales[0] = value;
  } else {
    head_.act_scale = value;
  }
}

StatusOr<std::shared_ptr<const nn::ir::CompiledPlan>> CompileQuantizedPlan(
    const QuantizedGenerator& artifact, const data::EntityTable& item_profiles,
    int64_t max_batch, std::shared_ptr<const void> keepalive) {
  ATNN_RETURN_IF_ERROR(artifact.Validate());
  const bool int8 = artifact.precision() == Precision::kInt8;
  core::GeneratorSpec spec;
  for (const QuantizedField& field : artifact.fields()) {
    core::GeneratorWeights table;
    table.cols = field.embed_dim;
    if (int8) {
      table.rows = field.rows_q.rows;
      table.low = {.s8 = field.rows_q.data.data(),
                   .scales = field.rows_q.scales.data()};
    } else {
      table.rows = field.rows_bf.rows;
      table.low = {.bf16 = field.rows_bf.data.data()};
    }
    spec.fields.push_back({field.hash_buckets, table});
  }
  spec.dense_cols = artifact.numeric_cols();
  const auto dense = [int8](const QuantizedDense& d) {
    core::GeneratorDense layer;
    layer.weight.rows = d.in_dim;
    layer.weight.cols = d.out_dim;
    layer.bias = d.bias.data();
    layer.act = d.activation;
    if (int8) {
      layer.weight.low = {.s8 = d.packed.data(),
                          .colsum = d.colsum.data(),
                          .scales = d.w_scales.data(),
                          .act_scale = d.act_scale};
    } else {
      layer.weight.low = {.bf16 = d.weights_bf.data.data()};
    }
    return layer;
  };
  for (const QuantizedDense& d : artifact.deep()) spec.deep.push_back(dense(d));
  for (const CrossLayerFp32& layer : artifact.cross()) {
    spec.cross.push_back({layer.w.data(), layer.b.data()});
  }
  spec.head = dense(artifact.head());
  return core::CompileGeneratorSpec(spec, item_profiles, max_batch,
                                    std::move(keepalive));
}

}  // namespace atnn::quant
