#ifndef ATNN_NN_OPS_H_
#define ATNN_NN_OPS_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "nn/autograd.h"
#include "nn/tensor.h"

namespace atnn::nn {

// Differentiable ops. Every function builds one (or a few) graph nodes;
// gradients follow the standard formulas and are verified against finite
// differences in tests/nn/gradcheck_test.cc. Inside an ArenaScope all node
// outputs, gradients and backward workspaces draw from the thread arena,
// so a steady-state training step allocates nothing from the heap.

/// Nonlinearity of a dense layer (DenseAffine here, the layers in
/// layers.h). The values are stable: int8/bf16 artifacts store them as a
/// u32 tag.
enum class Activation {
  kIdentity = 0,
  kRelu = 1,
};

/// C = A * B. A [m,k], B [k,n] -> [m,n].
Var MatMul(const Var& a, const Var& b);

/// Elementwise sum; shapes must match.
Var Add(const Var& a, const Var& b);

/// Elementwise difference; shapes must match.
Var Sub(const Var& a, const Var& b);

/// Elementwise (Hadamard) product; shapes must match.
Var Mul(const Var& a, const Var& b);

/// Elementwise quotient; shapes must match. The caller is responsible for
/// keeping the denominator bounded away from zero.
Var Div(const Var& a, const Var& b);

/// alpha * A.
Var Scale(const Var& a, float alpha);

/// X [m,n] + bias [1,n] broadcast over rows.
Var AddBias(const Var& x, const Var& bias);

/// Fused dense layer: act(x W + b) in one node, with the GEMM epilogue
/// (bias add + activation) applied in-register by the kernel layer instead
/// of as three tape nodes. Forward and backward are bitwise-identical to
/// the AddBias(MatMul(x,w),b) composition (then Relu for kRelu) on the
/// scalar backend. x [m,k], w [k,n], b [1,n] -> [m,n].
Var DenseAffine(const Var& x, const Var& w, const Var& b, Activation act);

/// out[i,j] = x[i,j] * s[i]; s is a column [m,1]. (Row-wise scaling, the
/// core of the DCN cross layer.)
Var ScaleRows(const Var& x, const Var& s);

Var Sigmoid(const Var& x);
Var Relu(const Var& x);

/// Horizontal concatenation; all inputs share the row count.
Var ConcatCols(std::span<const Var> parts);
inline Var ConcatCols(std::initializer_list<Var> parts) {
  return ConcatCols(std::span<const Var>(parts.begin(), parts.size()));
}

/// Mean over all elements -> [1,1].
Var ReduceMean(const Var& x);

/// Sum over all elements -> [1,1].
Var ReduceSum(const Var& x);

/// Elementwise square.
Var Square(const Var& x);

/// Row-wise dot products of equal-shape matrices -> [m,1]. This is the
/// two-tower scoring head: score_i = <item_vec_i, user_vec_i>.
Var RowwiseDot(const Var& a, const Var& b);

/// Row-wise sums -> [m,1]. (DeepFM's second-order pooling, among others.)
Var RowwiseSum(const Var& x);

/// Row-wise L2 norm -> [m,1]; eps keeps the gradient finite at zero.
Var RowwiseNorm(const Var& x, float eps = 1e-8f);

/// Row-wise cosine similarity of equal-shape matrices -> [m,1]. Composed
/// from RowwiseDot/RowwiseNorm/Div.
Var CosineSimilarityRows(const Var& a, const Var& b, float eps = 1e-8f);

/// Detaches x from the graph: value is copied, gradient does not flow.
/// Used to freeze the encoder target in the generator's similarity loss.
Var StopGradient(const Var& x);

/// Gathers rows of `table` [vocab, dim] by ids -> [ids.size(), dim].
/// Backward scatter-adds into the table's gradient and records touched
/// rows so optimizers can apply lazy sparse updates.
Var EmbeddingLookup(const Var& table, std::span<const int64_t> ids);

/// Numerically-stable binary cross-entropy with logits, averaged over the
/// batch. logits [m,1]; labels [m,1] constant tensor in {0,1} (soft labels
/// allowed). This is L_i / L_g in the paper.
Var SigmoidBceLossWithLogits(const Var& logits, const Tensor& labels);

/// Mean squared error against a constant target; used for the paper's
/// VpPV/GMV regression heads.
Var MseLoss(const Var& pred, const Tensor& target);

/// Mean squared difference of two differentiable matrices, i.e.
/// mean((a - b)^2). Used for the L2 variant of the similarity loss L_s.
Var MseBetween(const Var& a, const Var& b);

}  // namespace atnn::nn

#endif  // ATNN_NN_OPS_H_
