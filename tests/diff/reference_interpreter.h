#ifndef ATNN_TESTS_DIFF_REFERENCE_INTERPRETER_H_
#define ATNN_TESTS_DIFF_REFERENCE_INTERPRETER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/schema.h"
#include "nn/kernels.h"
#include "quant/quantized_generator.h"

namespace atnn::diff {

/// Test-only reference executor for quantized artifacts: the int8/bf16
/// generator forward written out as a plain interpreter over the
/// artifact's weights. It calls the kernel table one step at a time in the
/// order the artifact defines — gather and dequantize, each dense layer
/// (quantize_u8 + gemm_s8, or gemm_bf16, then the bias epilogue), the cross
/// stack as gemm into per-row dots plus cross_epilogue, the head — with
/// its own id resolution and buffers. A lowered CompiledPlan must
/// reproduce its bits.

/// Bucket index of one categorical id, as EmbeddingBag::Forward defines
/// it: hashing for any non-negative id, a direct index otherwise.
inline StatusOr<int64_t> ResolveRow(int64_t id, int64_t hash_buckets,
                                    int64_t rows) {
  if (id < 0) {
    return Status::InvalidArgument("negative id " + std::to_string(id));
  }
  if (hash_buckets > 0) {
    return static_cast<int64_t>(SplitMix64(static_cast<uint64_t>(id)) %
                                static_cast<uint64_t>(hash_buckets));
  }
  if (id >= rows) {
    return Status::OutOfRange("id " + std::to_string(id) + " out of vocab");
  }
  return id;
}

/// g(X_ip) of `batch` through `artifact`: [rows, vector_dim] row-major into
/// *out. The artifact must have passed Validate().
inline Status ReferenceForward(const quant::QuantizedGenerator& artifact,
                               const data::BlockBatch& batch,
                               std::vector<float>* out) {
  const nn::kernels::KernelTable& kt = nn::kernels::Kernels();
  const bool int8 = artifact.precision() == quant::Precision::kInt8;
  const std::vector<quant::QuantizedField>& fields = artifact.fields();
  if (batch.categorical.size() != fields.size()) {
    return Status::InvalidArgument("batch field count mismatch");
  }
  const int64_t m = batch.rows();
  out->clear();
  if (m == 0) return Status::OK();  // kernels take no empty buffers
  const int64_t width = artifact.input_dim();

  // The tower input: dequantized embedding rows, then the fp32 numerics.
  std::vector<float> x(static_cast<size_t>(m * width));
  int64_t offset = 0;
  for (size_t f = 0; f < fields.size(); ++f) {
    const quant::QuantizedField& field = fields[f];
    const int64_t rows = int8 ? field.rows_q.rows : field.rows_bf.rows;
    for (int64_t r = 0; r < m; ++r) {
      const StatusOr<int64_t> row = ResolveRow(
          batch.categorical[f][static_cast<size_t>(r)], field.hash_buckets,
          rows);
      if (!row.ok()) return row.status();
      float* dst = x.data() + r * width + offset;
      if (int8) {
        kt.dequant_row_s8(field.embed_dim,
                          field.rows_q.scales[static_cast<size_t>(*row)],
                          field.rows_q.data.data() + *row * field.embed_dim,
                          dst);
      } else {
        kt.bf16_to_f32(field.embed_dim,
                       field.rows_bf.data.data() + *row * field.embed_dim,
                       dst);
      }
    }
    offset += field.embed_dim;
  }
  const int64_t numeric = artifact.numeric_cols();
  if (numeric > 0) {
    if (batch.numeric.cols() != numeric) {
      return Status::InvalidArgument("batch numeric width mismatch");
    }
    for (int64_t r = 0; r < m; ++r) {
      std::memcpy(x.data() + r * width + offset, batch.numeric.row_ptr(r),
                  static_cast<size_t>(numeric) * sizeof(float));
    }
  }

  const auto dense = [&](const quant::QuantizedDense& d,
                         const std::vector<float>& in) {
    std::vector<float> y(static_cast<size_t>(m * d.out_dim));
    if (int8) {
      // Code 64 is the zero point: lanes past in_dim stand for exactly 0.
      std::vector<uint8_t> codes(static_cast<size_t>(m * d.k4), 64);
      const float inv_scale = 1.0f / d.act_scale;
      for (int64_t r = 0; r < m; ++r) {
        kt.quantize_u8(d.in_dim, inv_scale, in.data() + r * d.in_dim,
                       codes.data() + r * d.k4);
      }
      kt.gemm_s8(m, d.k4, d.out_dim, codes.data(), d.packed.data(),
                 d.colsum.data(), d.w_scales.data(), d.act_scale, y.data());
    } else {
      kt.gemm_bf16(m, d.in_dim, d.out_dim, in.data(),
                   d.weights_bf.data.data(), y.data());
    }
    if (d.activation == nn::Activation::kRelu) {
      kt.bias_relu(m, d.out_dim, d.bias.data(), y.data());
    } else {
      kt.bias_identity(m, d.out_dim, d.bias.data(), y.data());
    }
    return y;
  };

  std::vector<float> deep = x;
  for (const quant::QuantizedDense& d : artifact.deep()) deep = dense(d, deep);
  if (artifact.cross().empty()) {
    *out = dense(artifact.head(), deep);
    return Status::OK();
  }
  // x_{l+1} = x0 * (x_l . w_l) + b_l + x_l, in place over x_l.
  std::vector<float> cross = x;
  std::vector<float> dots(static_cast<size_t>(m));
  for (const quant::CrossLayerFp32& layer : artifact.cross()) {
    kt.gemm(m, width, 1, cross.data(), layer.w.data(), dots.data());
    kt.cross_epilogue(m, width, x.data(), dots.data(), layer.b.data(),
                      cross.data(), cross.data());
  }
  const int64_t deep_cols = artifact.head().in_dim - width;
  std::vector<float> head_in(static_cast<size_t>(m * (width + deep_cols)));
  for (int64_t r = 0; r < m; ++r) {
    float* dst = head_in.data() + r * (width + deep_cols);
    std::memcpy(dst, cross.data() + r * width,
                static_cast<size_t>(width) * sizeof(float));
    std::memcpy(dst + width, deep.data() + r * deep_cols,
                static_cast<size_t>(deep_cols) * sizeof(float));
  }
  *out = dense(artifact.head(), head_in);
  return Status::OK();
}

}  // namespace atnn::diff

#endif  // ATNN_TESTS_DIFF_REFERENCE_INTERPRETER_H_
