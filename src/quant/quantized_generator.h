#ifndef ATNN_QUANT_QUANTIZED_GENERATOR_H_
#define ATNN_QUANT_QUANTIZED_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "core/atnn.h"
#include "data/schema.h"
#include "nn/ir/plan.h"
#include "nn/layers.h"
#include "nn/tensor.h"

namespace atnn::quant {

/// Numeric format of the serving-side generator weights. kFp32 means "no
/// quantized artifact — serve the full model"; the QuantizedGenerator
/// itself only stores kBf16 or kInt8.
enum class Precision { kFp32, kBf16, kInt8 };

const char* PrecisionName(Precision precision);

/// Parses the --atnn_precision flag values fp32 | bf16 | int8.
StatusOr<Precision> ParsePrecision(const std::string& name);

/// Per-row symmetric int8 storage: value(r,c) = data[r*cols+c] * scales[r].
/// Rows whose absmax is 0 (a never-touched hash bucket, an all-zero
/// embedding) get scale 1.0f so dequantization never divides by or
/// multiplies with 0/NaN.
struct QuantizedRowMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int8_t> data;    // [rows * cols]
  std::vector<float> scales;   // [rows]
};

/// bf16 storage (fp32 with the low mantissa half dropped, RNE).
struct Bf16Matrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<uint16_t> data;  // [rows * cols]
};

/// One categorical embedding table of the generator bag, in whichever
/// format the artifact's precision selects.
struct QuantizedField {
  std::string name;
  int64_t hash_buckets = 0;    // 0 = direct vocab indexing, else == rows
  int64_t embed_dim = 0;
  QuantizedRowMatrix rows_q;   // kInt8
  Bf16Matrix rows_bf;          // kBf16
};

/// One dense layer (deep stack or head). int8 weights are per-column
/// symmetric, stored as the row-major [in,out] code matrix and re-packed
/// for kernels::gemm_s8 on construction/load; the activation entering the
/// layer is quantized with the static `act_scale` calibrated at build time.
struct QuantizedDense {
  int64_t in_dim = 0;
  int64_t out_dim = 0;
  nn::Activation activation = nn::Activation::kIdentity;
  std::vector<float> bias;       // fp32 [out_dim]
  float act_scale = 1.0f;        // input scale (kInt8; absmax/63)
  // kInt8 storage.
  std::vector<int8_t> codes;     // row-major [in_dim, out_dim]
  std::vector<float> w_scales;   // per-column [out_dim]
  // Derived (not serialized): gemm_s8 packing.
  int64_t k4 = 0;
  std::vector<int8_t> packed;    // [k4/4][out_dim][4]
  std::vector<int32_t> colsum;   // [out_dim]
  // kBf16 storage.
  Bf16Matrix weights_bf;         // [in_dim, out_dim]
};

/// Cross-network layers stay fp32 in every precision: per layer ~2*d
/// floats, noise next to the embedding tables, and the x0*(x·w) rank-1
/// update is too error-sensitive to be worth 8 bits.
struct CrossLayerFp32 {
  std::vector<float> w;  // [dim]
  std::vector<float> b;  // [dim]
};

/// The serving-side low-precision twin of the model's generator path
/// g(X_ip): quantized embedding tables + dense tower weights with fp32
/// scales, built offline from a trained AtnnModel plus a calibration batch
/// and serialized alongside the model snapshot (versioned tag, CRC via the
/// common binary container). It is weights only: CompileQuantizedPlan
/// lowers it into the same CompiledPlan executor fp32 serving uses, whose
/// steps run the KernelTable low-precision kernels over these buffers —
/// no autograd graph, no fp32 weight copy in memory. See DESIGN.md §15.
class QuantizedGenerator {
 public:
  /// Quantizes `model`'s generator path at the given precision (kBf16 or
  /// kInt8 — kFp32 is InvalidArgument; serve the model itself instead).
  /// `calibration` is a representative item-profile batch (e.g. a slice of
  /// the catalog); each dense layer's fp32 input absmax over it, from the
  /// model's tape forward, becomes its static int8 activation scale. For
  /// kInt8 a batch the generator cannot read is InvalidArgument, or
  /// OutOfRange for a direct id past its table.
  static StatusOr<QuantizedGenerator> Build(
      const core::AtnnModel& model, const data::BlockBatch& calibration,
      Precision precision);

  /// Structural + numeric integrity: every row/column/activation scale
  /// must be finite and nonzero, shapes consistent, and a hashed field's
  /// hash_buckets equal to its table's rows. DataLoss on failure
  /// (ValidateServingSnapshot refuses to publish such an artifact).
  Status Validate() const;

  Precision precision() const { return precision_; }
  int64_t vector_dim() const { return vector_dim_; }
  int64_t input_dim() const { return input_dim_; }
  int64_t numeric_cols() const { return numeric_cols_; }

  /// The weights, read by the plan lowering and by reference executors.
  const std::vector<QuantizedField>& fields() const { return fields_; }
  const std::vector<QuantizedDense>& deep() const { return deep_; }
  const std::vector<CrossLayerFp32>& cross() const { return cross_; }
  const QuantizedDense& head() const { return head_; }

  /// Serialized payload size in bytes (what Save writes, pre-container).
  int64_t QuantizedByteSize() const;
  /// Bytes the same tensors occupy at fp32 — the denominator of the
  /// bench_quantized compression gate.
  int64_t Fp32ByteSize() const;

  void SerializeTo(BinaryWriter* writer) const;
  static StatusOr<QuantizedGenerator> DeserializeFrom(BinaryReader* reader);

  /// Atomic, CRC-covered artifact file next to the model snapshot. The tag
  /// must match on load (architecture drift check, same contract as
  /// serving::SaveModelSnapshot).
  Status Save(const std::string& path, const std::string& tag) const;
  static StatusOr<QuantizedGenerator> Load(const std::string& path,
                                           const std::string& expected_tag);

  /// Test seam: poisons the first embedding field's first row scale so
  /// validation-rejection paths can be exercised without hand-crafting a
  /// corrupt artifact.
  void CorruptScaleForTest(float value);

 private:
  QuantizedGenerator() = default;

  /// Recomputes packed/colsum for every dense layer from `codes`.
  void PackDenseLayers();

  Precision precision_ = Precision::kInt8;
  int64_t input_dim_ = 0;    // embedding concat + numeric width
  int64_t numeric_cols_ = 0;
  int64_t vector_dim_ = 0;
  std::vector<QuantizedField> fields_;
  std::vector<QuantizedDense> deep_;
  std::vector<CrossLayerFp32> cross_;  // empty for kFullyConnected towers
  QuantizedDense head_;
};

/// Artifact format version; bumped on any wire change.
constexpr uint32_t kQuantFormatVersion = 1;

/// Lowers `artifact` (after its Validate passes) into a CompiledPlan for
/// batches of up to `max_batch` rows (DESIGN.md §15): the artifact fills a
/// core::GeneratorSpec, and core::CompileGeneratorSpec checks that the plan
/// can read `item_profiles` and builds it. The plan borrows the artifact's
/// buffers; `keepalive` (may be null) is pinned for the plan's lifetime —
/// pass the artifact's owning handle.
StatusOr<std::shared_ptr<const nn::ir::CompiledPlan>> CompileQuantizedPlan(
    const QuantizedGenerator& artifact, const data::EntityTable& item_profiles,
    int64_t max_batch, std::shared_ptr<const void> keepalive = nullptr);

}  // namespace atnn::quant

#endif  // ATNN_QUANT_QUANTIZED_GENERATOR_H_
