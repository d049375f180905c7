#ifndef ATNN_NN_IR_PASSES_H_
#define ATNN_NN_IR_PASSES_H_

#include <span>
#include <string>

#include "common/status.h"
#include "nn/ir/graph.h"

namespace atnn::nn::ir {

/// One deterministic rewrite over a Graph. Every pass is independently
/// semantics-preserving (bitwise: an optimized graph executes to exactly
/// the bytes the unoptimized one does), so any pass order and any subset
/// yields identical outputs — a property the test suite enforces with
/// randomized pass orderings. Passes that restructure the graph clear
/// in-place marks first; the in-place pass recomputes its marks from
/// scratch, so marks can never go stale across pass orderings.
struct Pass {
  const char* name;
  /// Rewrites *graph, adding the number of rewrites applied to *changes.
  void (*run)(Graph* graph, int* changes);
};

/// Evaluates every node whose inputs are all constants at compile time
/// (frozen profile-side subgraphs collapse to one baked tensor) using the
/// exact executor primitives, so folded bits == executed bits.
extern const Pass kConstantFolding;

/// Drops nodes unreachable from the output — the inference-dead branches
/// (training heads, auxiliary towers) that a NoGradGuard forward never
/// needs, plus orphans left behind by other passes.
extern const Pass kDeadCodeElimination;

/// Rewrites matmul -> add_bias -> {identity,relu} chains with single-use
/// intermediates into one fused kDenseAffine node — the automatic
/// replacement for the hand-rolled FusedEpiloguesEnabled special case at
/// the nn/kernels call sites. Bitwise-safe on every backend: those
/// epilogues apply the same adds in the same order as the unfused pair.
/// Sigmoid chains are deliberately left unfused (the fused kernel
/// saturates; see the pass body) — they execute fused anyway whenever the
/// traced forward itself used DenseAffine, which is the default. Also
/// rewrites each Deep & Cross layer's four-op chain into one kCrossLayer.
extern const Pass kEpilogueFusion;

/// Marks nodes whose output may overwrite their first input's buffer
/// (liveness-proven last use), removing the copy their op would otherwise
/// pay. Recomputes every mark from scratch each run.
extern const Pass kInplaceRewrite;

/// The canonical pipeline, in order: fold, DCE, fuse, DCE, inplace.
std::span<const Pass> DefaultPasses();

/// Runs one pass and re-validates the graph (a pass bug surfaces as a
/// Status here, not as a corrupt plan). Returns the number of rewrites via
/// *changes when non-null.
Status RunPass(const Pass& pass, Graph* graph, int* changes = nullptr);

/// Runs DefaultPasses() in order; `summary` (when non-null) receives a
/// "fold:2 dce:5 fuse:3 dce:0 inplace:4" style report for logs/benches.
Status RunDefaultPasses(Graph* graph, std::string* summary = nullptr);

}  // namespace atnn::nn::ir

#endif  // ATNN_NN_IR_PASSES_H_
