#ifndef ATNN_NN_IR_EVAL_H_
#define ATNN_NN_IR_EVAL_H_

#include <cstdint>
#include <span>

#include "nn/ir/graph.h"

namespace atnn::nn::ir {

/// A resolved operand for node evaluation: raw pointer + shape.
struct EvalInput {
  const float* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;
};

/// Evaluates one compute node into `out` ([out_rows, def.cols], caller
/// allocated). Shared by the constant-folding pass and the CompiledPlan
/// executor — both therefore produce exactly the bits the autograd ops
/// produce, because each case calls the same kernel-table entries in the
/// same composition as its op in nn/ops.cc (gemm + bias epilogues, kt.add,
/// kt.scale, and loop-for-loop identical elementwise maps).
///
/// `out` may alias ins[0].data (in-place execution); the copy-then-transform
/// steps skip the copy when they detect the alias. Leaf kinds (kConstant,
/// kDenseInput, kEmbedLookup) are not compute nodes and must not be passed.
///
/// `workspace` holds kCrossLayer's out_rows float dots (x_l·w) and
/// kDenseAffineS8's out_rows x RoundUpK4(in) u8 input codes; other kinds
/// ignore it.
void EvalNodeInto(const NodeDef& def, std::span<const EvalInput> ins,
                  int64_t out_rows, float* out, void* workspace);

}  // namespace atnn::nn::ir

#endif  // ATNN_NN_IR_EVAL_H_
