#include "nn/ir/plan.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "nn/arena.h"
#include "nn/kernels.h"

namespace atnn::nn::ir {

namespace {

// Executor inputs are resolved into a fixed stack array; Compile rejects
// wider nodes (a concat over this many parts does not occur in practice).
constexpr uint32_t kMaxStepInputs = 64;

size_t AlignUp(size_t bytes) {
  return (bytes + kTensorAlignment - 1) & ~(kTensorAlignment - 1);
}

bool IsComputeKind(OpKind kind) {
  return kind != OpKind::kConstant && kind != OpKind::kDenseInput;
}

/// A resolved step operand: raw pointer + shape.
struct StepInput {
  const float* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;
};

/// Runs one compute step other than a lookup into `out` ([out_rows,
/// def.cols]). Each case calls the kernel-table entries its autograd op in
/// nn/ops.cc calls, in the same composition, so an fp32 step produces the
/// tape's bits. `out` may alias ins[0].data only for a cross layer.
/// `workspace` holds kCrossLayer's out_rows float dots (x_l·w) and
/// kDenseAffineS8's out_rows x RoundUpK4(in) u8 input codes.
void RunStep(const NodeDef& def, std::span<const StepInput> ins,
             int64_t out_rows, float* out, std::byte* workspace) {
  const kernels::KernelTable& kt = kernels::Kernels();
  switch (def.kind) {
    case OpKind::kMatMul:
      kt.gemm(out_rows, ins[0].cols, ins[1].cols, ins[0].data, ins[1].data,
              out);
      break;
    case OpKind::kDenseAffine:
    case OpKind::kDenseAffineS8:
    case OpKind::kDenseAffineBf16: {
      // The GEMM of the weight format, then the fused bias+activation
      // epilogue, the kernel pair nn::DenseAffine issues for fp32.
      const LowPrecisionWeights& w = def.weights;
      if (def.kind == OpKind::kDenseAffine) {
        kt.gemm(out_rows, ins[0].cols, ins[1].cols, ins[0].data, ins[1].data,
                out);
      } else if (def.kind == OpKind::kDenseAffineS8) {
        // Each input row becomes 7-bit codes at the layer's static scale;
        // lanes past k hold the zero point 64, so the bytes stay defined.
        const int64_t k = ins[0].cols;
        const int64_t k4 = kernels::RoundUpK4(k);
        auto* codes = reinterpret_cast<uint8_t*>(workspace);
        const float inv_scale = 1.0f / w.act_scale;
        for (int64_t r = 0; r < out_rows; ++r) {
          uint8_t* row = codes + r * k4;
          kt.quantize_u8(k, inv_scale, ins[0].data + r * k, row);
          std::memset(row + k, 64, static_cast<size_t>(k4 - k));
        }
        kt.gemm_s8(out_rows, k4, def.cols, codes, w.s8, w.colsum, w.scales,
                   w.act_scale, out);
      } else {
        kt.gemm_bf16(out_rows, ins[0].cols, def.cols, ins[0].data, w.bf16,
                     out);
      }
      const float* bias = ins.back().data;
      if (def.act == Activation::kRelu) {
        kt.bias_relu(out_rows, def.cols, bias, out);
      } else {
        kt.bias_identity(out_rows, def.cols, bias, out);
      }
      break;
    }
    case OpKind::kConcatCols: {
      int64_t offset = 0;
      for (const StepInput& in : ins) {
        for (int64_t r = 0; r < out_rows; ++r) {
          std::copy(in.data + r * in.cols, in.data + (r + 1) * in.cols,
                    out + r * def.cols + offset);
        }
        offset += in.cols;
      }
      break;
    }
    case OpKind::kCrossLayer: {
      // The matmul, then scale_rows -> add_bias -> add in one pass. Every
      // dot is computed before any row of `out` is written, so `out` may
      // alias x_l.
      auto* dots = reinterpret_cast<float*>(workspace);
      kt.gemm(out_rows, def.cols, 1, ins[0].data, ins[2].data, dots);
      kt.cross_epilogue(out_rows, def.cols, ins[1].data, dots, ins[3].data,
                        ins[0].data, out);
      break;
    }
    case OpKind::kConstant:
    case OpKind::kDenseInput:
    case OpKind::kEmbedLookup:
      ATNN_CHECK(false) << "RunStep on " << OpKindName(def.kind);
      break;
  }
}

/// Marks each cross layer whose x_l is a computed value read last by that
/// layer: the layer may then overwrite x_l's buffer (see RunStep). Every
/// other mark is cleared. The output is read by the caller after the last
/// step, so it is never overwritten.
void MarkInplace(Graph* graph) {
  std::vector<int32_t> last_use(graph->size(), -1);
  for (int32_t id = 0; id < graph->size(); ++id) {
    for (const int32_t input : graph->node(id).inputs) last_use[input] = id;
  }
  last_use[graph->output()] = std::numeric_limits<int32_t>::max();
  for (int32_t id = 0; id < graph->size(); ++id) {
    NodeDef& node = graph->mutable_node(id);
    node.inplace = node.kind == OpKind::kCrossLayer &&
                   IsComputeKind(graph->node(node.inputs[0]).kind) &&
                   last_use[node.inputs[0]] == id;
  }
}

}  // namespace

std::byte* PlanScratch::Ensure(size_t bytes) {
  if (bytes <= capacity_) return aligned_;
  storage_ = std::make_unique<std::byte[]>(bytes + kTensorAlignment - 1);
  const auto raw = reinterpret_cast<uintptr_t>(storage_.get());
  const uintptr_t aligned =
      (raw + kTensorAlignment - 1) & ~(uintptr_t{kTensorAlignment} - 1);
  aligned_ = storage_.get() + (aligned - raw);
  capacity_ = bytes;
  return aligned_;
}

StatusOr<std::unique_ptr<CompiledPlan>> CompiledPlan::Compile(
    Graph graph, const Options& options,
    std::shared_ptr<const void> keepalive) {
  if (options.max_batch < 1) {
    return Status::InvalidArgument("CompiledPlan max_batch must be >= 1");
  }
  ATNN_RETURN_IF_ERROR(graph.Validate());
  std::unique_ptr<CompiledPlan> plan(new CompiledPlan());
  plan->graph_ = std::move(graph);
  plan->options_ = options;
  plan->keepalive_ = std::move(keepalive);
  MarkInplace(&plan->graph_);
  ATNN_RETURN_IF_ERROR(plan->Lower());
  return plan;
}

Status CompiledPlan::Lower() {
  const Graph& g = graph_;
  const int32_t n = g.size();
  const int32_t out_id = g.output();
  const NodeDef& out_node = g.node(out_id);
  if (!IsComputeKind(out_node.kind) && out_node.kind != OpKind::kEmbedLookup) {
    return Status::InvalidArgument("plan output is not a computed value");
  }
  if (!out_node.batch_rows) {
    return Status::InvalidArgument("plan output is not batch-shaped");
  }

  // --- liveness: last step at which each value is read ---
  std::vector<int32_t> last_use(n, -1);
  for (int32_t id = 0; id < n; ++id) {
    for (const int32_t input : g.node(id).inputs) {
      last_use[input] = std::max(last_use[input], id);
    }
  }
  last_use[out_id] = std::numeric_limits<int32_t>::max();

  // --- buffer assignment: in-place nodes join their input's buffer ---
  std::vector<int32_t> buffer_of(n, -1);
  int32_t num_buffers = 0;
  for (int32_t id = 0; id < n; ++id) {
    const NodeDef& node = g.node(id);
    if (!IsComputeKind(node.kind)) continue;  // leaves own no scratch
    if (node.inplace) {
      buffer_of[id] = buffer_of[node.inputs[0]];
      ATNN_CHECK(buffer_of[id] >= 0) << "inplace node aliases a leaf";
    } else {
      buffer_of[id] = num_buffers++;
    }
  }

  // Per-buffer extents: definition step, final read, byte size (layout rows
  // are max_batch for batch values).
  struct Buffer {
    int32_t def = std::numeric_limits<int32_t>::max();
    int32_t end = -1;
    size_t bytes = 0;
    size_t offset = 0;
  };
  std::vector<Buffer> buffers(num_buffers);
  for (int32_t id = 0; id < n; ++id) {
    const int32_t b = buffer_of[id];
    if (b < 0) continue;
    const NodeDef& node = g.node(id);
    const int64_t rows = node.batch_rows ? options_.max_batch : node.rows;
    const size_t bytes =
        AlignUp(static_cast<size_t>(rows * node.cols) * sizeof(float));
    buffers[b].def = std::min(buffers[b].def, id);
    buffers[b].end = std::max(buffers[b].end, last_use[id]);
    buffers[b].bytes = std::max(buffers[b].bytes, bytes);
  }

  // --- greedy best-fit placement over liveness intervals ---
  // Buffers are visited in definition order (== buffer id order, since ids
  // are assigned in one topological sweep); a slot freed by an expired
  // buffer is reused when it fits, preferring the tightest fit.
  struct Slot {
    size_t offset;
    size_t bytes;
    int32_t busy_until;  // step index of the occupant's final read
  };
  std::vector<Slot> slots;
  size_t total = 0;
  for (int32_t b = 0; b < num_buffers; ++b) {
    Buffer& buf = buffers[b];
    int best = -1;
    for (int s = 0; s < static_cast<int>(slots.size()); ++s) {
      if (slots[s].busy_until >= buf.def) continue;  // still live
      if (slots[s].bytes < buf.bytes) continue;      // too small
      if (best < 0 || slots[s].bytes < slots[best].bytes) best = s;
    }
    if (best >= 0) {
      buf.offset = slots[best].offset;
      slots[best].busy_until = buf.end;
    } else {
      buf.offset = total;
      total += buf.bytes;
      slots.push_back({buf.offset, buf.bytes, buf.end});
    }
  }

  // The shared step workspace: cross-layer dots ([rows] float) and int8
  // input codes ([rows, k4] u8).
  size_t workspace_bytes = 0;
  for (int32_t id = 0; id < n; ++id) {
    const NodeDef& node = g.node(id);
    const auto rows = static_cast<size_t>(
        node.batch_rows ? options_.max_batch : node.rows);
    if (node.kind == OpKind::kCrossLayer) {
      workspace_bytes = std::max(workspace_bytes, rows * sizeof(float));
    } else if (node.kind == OpKind::kDenseAffineS8) {
      const int64_t k4 = kernels::RoundUpK4(node.weights.rows);
      workspace_bytes =
          std::max(workspace_bytes, rows * static_cast<size_t>(k4));
    }
  }
  workspace_offset_ = total;
  total += AlignUp(workspace_bytes);
  plan_bytes_ = total;

  // --- lower nodes to steps with resolved operands ---
  const auto operand_of = [&](int32_t id) {
    const NodeDef& node = g.node(id);
    Operand op;
    op.rows = node.batch_rows ? -1 : node.rows;
    op.cols = node.cols;
    if (node.kind == OpKind::kConstant) {
      op.constant = node.data;
    } else if (node.kind == OpKind::kDenseInput) {
      op.is_dense = true;
    } else {
      op.offset = buffers[buffer_of[id]].offset;
    }
    return op;
  };
  steps_.clear();
  operands_.clear();
  for (int32_t id = 0; id < n; ++id) {
    const NodeDef& node = g.node(id);
    if (!IsComputeKind(node.kind)) continue;
    if (node.inputs.size() > kMaxStepInputs) {
      return Status::InvalidArgument("node exceeds executor input width");
    }
    Step step;
    step.node = id;
    step.kind = node.kind;
    step.out = operand_of(id);
    step.in_begin = static_cast<uint32_t>(operands_.size());
    step.in_count = static_cast<uint32_t>(node.inputs.size());
    for (const int32_t input : node.inputs) {
      operands_.push_back(operand_of(input));
    }
    if (node.kind == OpKind::kEmbedLookup) {
      const NodeDef* table =
          node.inputs.empty() ? nullptr : &g.node(node.inputs[0]);
      step.table = table != nullptr ? table->data : nullptr;
      step.table_rows = table != nullptr ? table->rows : node.weights.rows;
    }
    steps_.push_back(step);
  }
  output_offset_ = buffers[buffer_of[out_id]].offset;
  return Status::OK();
}

StatusOr<const float*> CompiledPlan::Execute(const PlanInput& input,
                                             int64_t batch,
                                             PlanScratch* scratch) const {
  if (batch < 1 || batch > options_.max_batch) {
    return Status::InvalidArgument("plan batch out of range");
  }
  const size_t num_fields =
      input.categorical != nullptr ? input.categorical->size() : 0;
  if (num_fields != static_cast<size_t>(graph_.num_fields())) {
    return Status::InvalidArgument(
        "plan input has " + std::to_string(num_fields) +
        " id fields, the graph reads " + std::to_string(graph_.num_fields()));
  }
  for (size_t f = 0; f < num_fields; ++f) {
    if (static_cast<int64_t>((*input.categorical)[f].size()) != batch) {
      return Status::InvalidArgument("plan id field size != batch");
    }
  }
  if (graph_.dense_cols() >= 0) {
    if ((input.dense == nullptr && graph_.dense_cols() > 0) ||
        input.dense_rows != batch ||
        input.dense_cols != graph_.dense_cols()) {
      return Status::InvalidArgument("plan dense block shape mismatch");
    }
  }

  std::byte* base = scratch->Ensure(plan_bytes_);
  const auto resolve = [&](const Operand& op) -> const float* {
    if (op.constant != nullptr) return op.constant;
    if (op.is_dense) return input.dense;
    return reinterpret_cast<const float*>(base + op.offset);
  };

  const kernels::KernelTable& kt = kernels::Kernels();
  std::byte* workspace = base + workspace_offset_;
  StepInput ins[kMaxStepInputs];
  for (const Step& step : steps_) {
    const NodeDef& def = graph_.node(step.node);
    float* out = reinterpret_cast<float*>(base + step.out.offset);
    if (step.kind == OpKind::kEmbedLookup) {
      // One id path for every table format: hash, range-check, gather.
      const int64_t* ids = (*input.categorical)[def.field].data();
      const int64_t dim = def.cols;
      const LowPrecisionWeights& low = def.weights;
      for (int64_t r = 0; r < batch; ++r) {
        int64_t id = ids[r];
        // Same feature hash EmbeddingBag::Forward applies to raw ids, which
        // it defines for non-negative ids only.
        if (def.hash_buckets > 0 && id >= 0) {
          id = static_cast<int64_t>(SplitMix64(static_cast<uint64_t>(id)) %
                                    static_cast<uint64_t>(def.hash_buckets));
        }
        if (id < 0 || id >= step.table_rows) {
          return Status::InvalidArgument("embedding id out of range");
        }
        float* row = out + r * dim;
        if (step.table != nullptr) {
          std::memcpy(row, step.table + id * dim,
                      static_cast<size_t>(dim) * sizeof(float));
        } else if (low.s8 != nullptr) {
          kt.dequant_row_s8(dim, low.scales[id], low.s8 + id * dim, row);
        } else {
          kt.bf16_to_f32(dim, low.bf16 + id * dim, row);
        }
      }
      continue;
    }
    for (uint32_t i = 0; i < step.in_count; ++i) {
      const Operand& op = operands_[step.in_begin + i];
      ins[i] = {resolve(op), op.rows < 0 ? batch : op.rows, op.cols};
    }
    const int64_t out_rows = step.out.rows < 0 ? batch : step.out.rows;
    RunStep(def, std::span<const StepInput>(ins, step.in_count), out_rows,
            out, workspace);
  }
  return reinterpret_cast<const float*>(base + output_offset_);
}

}  // namespace atnn::nn::ir
