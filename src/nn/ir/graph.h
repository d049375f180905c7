#ifndef ATNN_NN_IR_GRAPH_H_
#define ATNN_NN_IR_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/ops.h"

namespace atnn::nn::ir {

/// Op vocabulary of the inference IR: what the generator builder
/// (core/generator_plan.h) emits for every precision. Each compute kind
/// calls the kernel-table entries its autograd counterpart in nn/ops.h
/// issues, in the same composition, which is what lets a compiled fp32 plan
/// promise bitwise-identical outputs to the tape forward.
enum class OpKind : uint8_t {
  /// Static tensor baked into the plan, borrowed by pointer from the model
  /// or artifact that the plan's keepalive pins.
  kConstant,
  /// The batch-varying dense feature block ([B, dense_cols]), read straight
  /// from PlanInput at execution time.
  kDenseInput,
  /// Row gather of a table by the runtime ids of one categorical field
  /// ([B, dim]). hash_buckets > 0 applies the EmbeddingBag feature hash
  /// (SplitMix64 % buckets) to the raw ids first. The table is the one
  /// constant input, or, with no inputs, an int8 or bf16 `weights` table.
  kEmbedLookup,
  /// Plain x W. No builder emits it; perfbench's GEMM probe still names it.
  kMatMul,
  /// Fused act(x W + b); the gemm + bias_{identity,relu,sigmoid} epilogue
  /// pair from the kernel table, exactly as nn::DenseAffine issues it.
  kDenseAffine,
  /// act(x W + b) over int8 / bf16 `weights`, inputs (x, b): quantize_u8
  /// of x into the step workspace and gemm_s8, or gemm_bf16; then
  /// dense_affine's bias epilogue (DESIGN.md §15).
  kDenseAffineS8,
  kDenseAffineBf16,
  kConcatCols,
  /// One Deep & Cross layer, inputs (x_l, x0, w [d,1], b [1,d]):
  ///   x_{l+1} = x0 * (x_l w) + b + x_l
  /// Executes as gemm into a per-row dot slot, then the kernel table's
  /// cross_epilogue, which rounds like the tape's matmul -> scale_rows ->
  /// add_bias -> add chain it stands for.
  kCrossLayer,
};

/// Stable lowercase op name ("matmul", "dense_affine", ...).
const char* OpKindName(OpKind kind);

/// The activations the dense_affine kinds fuse: identity, relu, sigmoid.
bool IsEpilogueActivation(Activation act);

/// A [rows, cols] weight borrowed from a quantized artifact (pinned by the
/// plan's keepalive): for kDenseAffineS8 PackInt8B codes with per-column
/// colsum/scales and the input's act_scale, for kDenseAffineBf16 bf16, for
/// a kEmbedLookup table row-major s8 codes with per-row scales, or bf16.
struct LowPrecisionWeights {
  int64_t rows = 0;
  const int8_t* s8 = nullptr;
  const int32_t* colsum = nullptr;
  const float* scales = nullptr;
  float act_scale = 0.0f;
  const uint16_t* bf16 = nullptr;
};

/// One SSA value/node of the graph: every node produces exactly one output
/// value, so node index == value id. Inputs are indices of earlier nodes
/// (the node list is always topologically ordered by construction).
struct NodeDef {
  OpKind kind = OpKind::kConstant;
  std::vector<int32_t> inputs;

  /// Output shape. batch_rows marks the row count as the runtime batch size
  /// (rows is then nominal); static values use rows/cols directly.
  bool batch_rows = false;
  int64_t rows = 0;
  int64_t cols = 0;

  // --- per-kind attributes ---
  Activation act = Activation::kIdentity;  // the three dense_affine kinds
  int32_t field = -1;                      // kEmbedLookup: categorical field
  int64_t hash_buckets = 0;                // kEmbedLookup: 0 = ids used raw
  LowPrecisionWeights weights;             // see LowPrecisionWeights

  /// kConstant payload: an external buffer kept alive by the plan's
  /// keepalive (model parameters, artifact weights).
  const float* data = nullptr;
  /// Debug label for dumps ("param"); never a pointer, so ToText stays
  /// deterministic for golden tests.
  std::string label;

  /// Set by CompiledPlan::Compile: output aliases the buffer of inputs[0]
  /// (liveness-proven safe). Compile recomputes every mark from scratch.
  bool inplace = false;
};

/// The serving forward of one model arm as a flat, topologically ordered
/// node list. Built by core::CompileGeneratorSpec (core/generator_plan.h),
/// lowered by CompiledPlan (nn/ir/plan.h).
class Graph {
 public:
  /// Appends a node; inputs must reference existing nodes. Returns its id.
  int32_t AddNode(NodeDef def);

  int32_t size() const { return static_cast<int32_t>(nodes_.size()); }
  const NodeDef& node(int32_t id) const { return nodes_[id]; }
  NodeDef& mutable_node(int32_t id) { return nodes_[id]; }
  const std::vector<NodeDef>& nodes() const { return nodes_; }

  int32_t output() const { return output_; }
  void set_output(int32_t id) { output_ = id; }

  /// Number of categorical id fields the plan consumes from PlanInput
  /// (kEmbedLookup nodes carry field indices in [0, num_fields)).
  int32_t num_fields() const { return num_fields_; }
  void set_num_fields(int32_t n) { num_fields_ = n; }

  /// Dense input width, or -1 when the graph takes no dense block.
  int64_t dense_cols() const { return dense_cols_; }
  void set_dense_cols(int64_t cols) { dense_cols_ = cols; }

  /// Structural consistency: output set, inputs in range and topologically
  /// ordered, constants carry data, per-kind shape/attribute rules.
  Status Validate() const;

  /// Deterministic text form, one node per line:
  ///   %3 = matmul(%1, %2) : [Bx16]
  /// Used for golden plan tests and debug dumps; contains no pointers.
  std::string ToText() const;

 private:
  std::vector<NodeDef> nodes_;
  int32_t output_ = -1;
  int32_t num_fields_ = 0;
  int64_t dense_cols_ = -1;
};

}  // namespace atnn::nn::ir

#endif  // ATNN_NN_IR_GRAPH_H_
