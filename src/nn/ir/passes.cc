#include "nn/ir/passes.h"

#include <array>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "nn/ir/eval.h"

namespace atnn::nn::ir {

namespace {

bool IsComputeKind(OpKind kind) {
  return kind != OpKind::kConstant && kind != OpKind::kDenseInput;
}

bool SameShape(const NodeDef& a, const NodeDef& b) {
  return a.batch_rows == b.batch_rows && a.rows == b.rows && a.cols == b.cols;
}

/// Uses per node: appearances in input lists, +1 for the graph output (the
/// output buffer is read by the caller, so it is never a free intermediate).
std::vector<int32_t> UseCounts(const Graph& graph) {
  std::vector<int32_t> uses(graph.size(), 0);
  for (int32_t id = 0; id < graph.size(); ++id) {
    for (const int32_t input : graph.node(id).inputs) ++uses[input];
  }
  if (graph.output() >= 0) ++uses[graph.output()];
  return uses;
}

void RunConstantFolding(Graph* graph, int* changes) {
  // Folding replaces nodes; any existing aliasing decisions are void.
  graph->ClearInplaceMarks();
  std::vector<EvalInput> ins;
  for (int32_t id = 0; id < graph->size(); ++id) {
    const NodeDef& node = graph->node(id);
    // Lookups gather by runtime ids even off a constant table, and
    // low-precision steps run only as lowered.
    if (!IsComputeKind(node.kind) || node.kind == OpKind::kEmbedLookup ||
        node.kind == OpKind::kDenseAffineS8 ||
        node.kind == OpKind::kDenseAffineBf16) {
      continue;
    }
    bool all_const = true;
    for (const int32_t input : node.inputs) {
      if (graph->node(input).kind != OpKind::kConstant) {
        all_const = false;
        break;
      }
    }
    if (!all_const) continue;
    ATNN_CHECK(!node.batch_rows)
        << "batch-sized node with all-constant inputs";
    ins.clear();
    for (const int32_t input : node.inputs) {
      const NodeDef& c = graph->node(input);
      ins.push_back({c.data, c.rows, c.cols});
    }
    // Evaluate with the executor's own primitives: the baked tensor holds
    // exactly the bytes executing the subgraph would have produced.
    Tensor folded(node.rows, node.cols);
    Tensor dots(node.rows, 1);
    EvalNodeInto(node, ins, node.rows, folded.data(), dots.data());
    NodeDef replacement;
    replacement.kind = OpKind::kConstant;
    replacement.rows = node.rows;
    replacement.cols = node.cols;
    replacement.owned = std::move(folded);
    replacement.data = replacement.owned.data();
    replacement.label = "folded";
    graph->mutable_node(id) = std::move(replacement);
    ++*changes;
  }
}

void RunDeadCodeElimination(Graph* graph, int* changes) {
  *changes += graph->RemoveDeadNodes();
}

void RunEpilogueFusion(Graph* graph, int* changes) {
  // Fusing moves the position at which an input is consumed, which can
  // invalidate liveness-based aliasing; recompute marks after this pass.
  graph->ClearInplaceMarks();
  const std::vector<int32_t> uses = UseCounts(*graph);
  // Last reader of each value; with uses == 1 it is the sole reader. The
  // forward scan visits an add_bias before the relu that consumes it, so
  // pattern B must look ahead or it claims every chain pattern A should
  // fuse with the stronger relu epilogue.
  std::vector<int32_t> consumer(static_cast<size_t>(graph->size()), -1);
  for (int32_t id = 0; id < graph->size(); ++id) {
    for (const int32_t input : graph->node(id).inputs) consumer[input] = id;
  }
  for (int32_t id = 0; id < graph->size(); ++id) {
    const NodeDef& node = graph->node(id);
    // Pattern C: one Deep & Cross layer,
    //   add(add_bias(scale_rows(x0, matmul(x_l, w)), b), x_l)
    // with single-use intermediates and a [d,1] weight ->
    // cross_layer(x_l, x0, w, b). The fused epilogue rounds its mul and
    // two adds separately, in the chain's order, so this is bit-preserving.
    if (node.kind == OpKind::kAdd) {
      const int32_t bias_id = node.inputs[0];
      const NodeDef& bias = graph->node(bias_id);
      if (bias.kind != OpKind::kAddBias || uses[bias_id] != 1) continue;
      const int32_t scaled_id = bias.inputs[0];
      const NodeDef& scaled = graph->node(scaled_id);
      if (scaled.kind != OpKind::kScaleRows || uses[scaled_id] != 1) {
        continue;
      }
      const int32_t mm_id = scaled.inputs[1];
      const NodeDef& mm = graph->node(mm_id);
      if (mm.kind != OpKind::kMatMul || uses[mm_id] != 1) continue;
      if (mm.cols != 1 || node.inputs[1] != mm.inputs[0]) continue;
      if (!SameShape(graph->node(mm.inputs[0]), node) ||
          !SameShape(graph->node(scaled.inputs[0]), node) ||
          graph->node(mm.inputs[1]).batch_rows ||
          graph->node(bias.inputs[1]).batch_rows) {
        continue;
      }
      NodeDef fused;
      fused.kind = OpKind::kCrossLayer;
      fused.inputs = {mm.inputs[0], scaled.inputs[0], mm.inputs[1],
                      bias.inputs[1]};
      fused.batch_rows = node.batch_rows;
      fused.rows = node.rows;
      fused.cols = node.cols;
      graph->mutable_node(id) = std::move(fused);
      ++*changes;
      continue;
    }
    // Pattern A: relu(add_bias(matmul(x, w), b)) with single-use
    // intermediates -> dense_affine(x, w, b, relu). Identity and relu fuse
    // bitwise-exactly on every backend (the epilogue applies the same add
    // and max in the same order as the unfused pair). Sigmoid chains stay
    // unfused: bias_sigmoid saturates at +-88.38 (and the AVX2 family uses
    // a polynomial exp) while the standalone Sigmoid op does not, so that
    // rewrite would not be bit-preserving. A forward built with fused
    // epilogues on (the default) traces sigmoid layers as kDenseAffine
    // directly, so they still execute fused — this pass just never
    // *introduces* the fused sigmoid behind the tape's back.
    if (node.kind == OpKind::kRelu) {
      const int32_t bias_id = node.inputs[0];
      const NodeDef& bias = graph->node(bias_id);
      if (bias.kind != OpKind::kAddBias || uses[bias_id] != 1) continue;
      const int32_t mm_id = bias.inputs[0];
      const NodeDef& mm = graph->node(mm_id);
      if (mm.kind != OpKind::kMatMul || uses[mm_id] != 1) continue;
      NodeDef fused;
      fused.kind = OpKind::kDenseAffine;
      fused.act = Activation::kRelu;
      fused.inputs = {mm.inputs[0], mm.inputs[1], bias.inputs[1]};
      fused.batch_rows = node.batch_rows;
      fused.rows = node.rows;
      fused.cols = node.cols;
      graph->mutable_node(id) = std::move(fused);
      ++*changes;
      continue;
    }
    // Pattern B: add_bias(matmul(x, w), b) not consumed by a fusable
    // activation -> dense_affine(x, w, b, identity).
    if (node.kind == OpKind::kAddBias) {
      // A dead add_bias (the pair pattern A just bypassed) is DCE's to
      // sweep; rewriting it would make this pass non-idempotent.
      if (uses[id] == 0) continue;
      const int32_t mm_id = node.inputs[0];
      const NodeDef& mm = graph->node(mm_id);
      if (mm.kind != OpKind::kMatMul || uses[mm_id] != 1) continue;
      // Pattern A's preconditions hold and the sole reader is a relu:
      // leave the chain for the relu rewrite (one fused node, not two).
      if (uses[id] == 1 && consumer[id] >= 0 &&
          graph->node(consumer[id]).kind == OpKind::kRelu) {
        continue;
      }
      NodeDef fused;
      fused.kind = OpKind::kDenseAffine;
      fused.act = Activation::kIdentity;
      fused.inputs = {mm.inputs[0], mm.inputs[1], node.inputs[1]};
      fused.batch_rows = node.batch_rows;
      fused.rows = node.rows;
      fused.cols = node.cols;
      graph->mutable_node(id) = std::move(fused);
      ++*changes;
    }
  }
}

bool SupportsInplace(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd:
    case OpKind::kAddBias:
    case OpKind::kScale:
    case OpKind::kScaleRows:
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kLeakyRelu:
    // Safe because every per-row dot is computed before any output row is
    // written, and each element reads x_l[r,c] before writing out[r,c].
    case OpKind::kCrossLayer:
      return true;
    default:
      return false;
  }
}

void RunInplaceRewrite(Graph* graph, int* changes) {
  // Recomputed from scratch every run: marks derive purely from current
  // liveness, so the pass is idempotent and safe in any pipeline position.
  graph->ClearInplaceMarks();
  // Last position at which each node's value is read. The output is read by
  // the caller after the last step, so it can never be overwritten.
  std::vector<int32_t> last_use(graph->size(), -1);
  for (int32_t id = 0; id < graph->size(); ++id) {
    for (const int32_t input : graph->node(id).inputs) last_use[input] = id;
  }
  if (graph->output() >= 0) {
    last_use[graph->output()] = std::numeric_limits<int32_t>::max();
  }
  for (int32_t id = 0; id < graph->size(); ++id) {
    NodeDef& node = graph->mutable_node(id);
    if (!SupportsInplace(node.kind)) continue;
    const int32_t src = node.inputs[0];
    const NodeDef& producer = graph->node(src);
    // Only intermediate buffers may be clobbered — constants belong to the
    // plan (or the model) and the dense block belongs to the caller.
    if (!IsComputeKind(producer.kind)) continue;
    if (last_use[src] != id) continue;  // a later step still reads it
    if (!SameShape(producer, node)) continue;
    node.inplace = true;
    ++*changes;
  }
}

constexpr std::array<Pass, 5> kDefaultPipeline = {{
    {"fold", RunConstantFolding},
    {"dce", RunDeadCodeElimination},
    {"fuse", RunEpilogueFusion},
    {"dce", RunDeadCodeElimination},
    {"inplace", RunInplaceRewrite},
}};

}  // namespace

const Pass kConstantFolding{"fold", RunConstantFolding};
const Pass kDeadCodeElimination{"dce", RunDeadCodeElimination};
const Pass kEpilogueFusion{"fuse", RunEpilogueFusion};
const Pass kInplaceRewrite{"inplace", RunInplaceRewrite};

std::span<const Pass> DefaultPasses() { return kDefaultPipeline; }

Status RunPass(const Pass& pass, Graph* graph, int* changes) {
  int local = 0;
  pass.run(graph, &local);
  if (changes != nullptr) *changes += local;
  ATNN_RETURN_IF_ERROR(graph->Validate());
  return Status::OK();
}

Status RunDefaultPasses(Graph* graph, std::string* summary) {
  std::string report;
  for (const Pass& pass : DefaultPasses()) {
    int changes = 0;
    ATNN_RETURN_IF_ERROR(RunPass(pass, graph, &changes));
    if (!report.empty()) report += " ";
    report += std::string(pass.name) + ":" + std::to_string(changes);
  }
  if (summary != nullptr) *summary = std::move(report);
  return Status::OK();
}

}  // namespace atnn::nn::ir
