#ifndef ATNN_NN_IR_PLAN_H_
#define ATNN_NN_IR_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "nn/ir/graph.h"
#include "nn/tensor.h"

namespace atnn::nn::ir {

/// The batch-varying inputs of one plan execution. Mirrors
/// data::BlockBatch: per-field raw categorical ids (the executor applies
/// the EmbeddingBag feature hash itself where the graph says so) and the
/// dense feature block.
struct PlanInput {
  /// [field][row]; exactly the graph's num_fields fields, each with
  /// `batch` entries. May be null when num_fields == 0.
  const std::vector<std::vector<int64_t>>* categorical = nullptr;
  /// [batch, dense_cols]; may be null when the graph takes no dense block.
  const Tensor* dense = nullptr;
};

/// Reusable per-thread execution workspace: one flat allocation holding
/// every intermediate at the offsets the PlanLayout fixed at compile time.
/// Grows (once) to the plan's reserved size on first use; steady-state
/// executions perform zero heap allocations and zero bump-pointer
/// bookkeeping.
class PlanScratch {
 public:
  PlanScratch() = default;
  PlanScratch(const PlanScratch&) = delete;
  PlanScratch& operator=(const PlanScratch&) = delete;

  /// 32-byte-aligned buffer of at least `bytes`; reallocates only when
  /// growing.
  std::byte* Ensure(size_t bytes);

  size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<std::byte[]> storage_;
  std::byte* aligned_ = nullptr;
  size_t capacity_ = 0;
};

/// A generator graph lowered to a flat step program with a fixed buffer
/// layout: every intermediate has a precomputed offset (liveness-driven
/// reuse, in-place aliases honored), every constant a resolved pointer.
/// Execution is one switch-dispatch loop over the steps against the live
/// KernelTable — no graph walk, no shape checks, no node allocation, no
/// arena bookkeeping. An fp32 plan's outputs are bitwise-identical to the
/// tape forward of the model it was built from, because each step calls the
/// same kernels in the same composition as the autograd op it stands for.
///
/// Thread safety: Execute is const and touches only the caller's scratch,
/// so one CompiledPlan may serve concurrent workers, each with its own
/// PlanScratch.
class CompiledPlan {
 public:
  struct Options {
    /// Largest batch one Execute may carry; the layout is sized for it.
    int64_t max_batch = 64;
  };

  /// Validates `graph`, marks the cross layers that may run in place (an
  /// x_l computed by an earlier step and read last by this one), and lowers
  /// it. Any marks the caller set are recomputed. `keepalive`
  /// (may be null) is pinned for the plan's lifetime — pass the model whose
  /// parameter buffers the graph's constants borrow, or the quantized
  /// artifact whose weights its low-precision nodes borrow.
  static StatusOr<std::unique_ptr<CompiledPlan>> Compile(
      Graph graph, const Options& options,
      std::shared_ptr<const void> keepalive = nullptr);

  /// Runs the program for `batch` rows (1 <= batch <= max_batch) and
  /// returns the output buffer ([batch, output_cols] row-major inside
  /// `scratch` — valid until the scratch is reused or destroyed).
  /// InvalidArgument when the input does not carry exactly the graph's id
  /// fields or its dense width, an id is outside its table, or an id on a
  /// hashed field is negative. Performs no heap allocation once `scratch`
  /// has warmed to plan_bytes().
  StatusOr<const float*> Execute(const PlanInput& input, int64_t batch,
                                 PlanScratch* scratch) const;

  int64_t max_batch() const { return options_.max_batch; }
  int64_t output_cols() const { return graph_.node(graph_.output()).cols; }
  /// Scratch bytes one execution needs — the whole pre-planned layout.
  size_t plan_bytes() const { return plan_bytes_; }
  size_t num_steps() const { return steps_.size(); }
  /// The lowered graph, in-place marks included (dumps, tests).
  const Graph& graph() const { return graph_; }

 private:
  /// One resolved operand: constants carry a pointer, the dense input reads
  /// the caller's block, everything else lives at a fixed scratch offset.
  struct Operand {
    const float* constant = nullptr;
    size_t offset = 0;
    bool is_dense = false;
    int64_t rows = 0;  // -1 = the runtime batch
    int64_t cols = 0;
  };

  struct Step {
    int32_t node = -1;  // attributes (act, field, ...) read off graph_
    OpKind kind = OpKind::kConstant;
    Operand out;
    uint32_t in_begin = 0;
    uint32_t in_count = 0;
    // kEmbedLookup only: the fp32 table (null for a node-carried one).
    const float* table = nullptr;
    int64_t table_rows = 0;
  };

  CompiledPlan() = default;

  Status Lower();

  Graph graph_;
  Options options_;
  std::shared_ptr<const void> keepalive_;
  std::vector<Step> steps_;
  std::vector<Operand> operands_;
  size_t plan_bytes_ = 0;
  size_t output_offset_ = 0;
  /// One scratch region every step may use for its own temporaries: the
  /// per-row dots of a cross layer, the input codes of an int8 dense layer.
  /// Each step consumes it before the next runs, so the steps share it.
  size_t workspace_offset_ = 0;
};

}  // namespace atnn::nn::ir

#endif  // ATNN_NN_IR_PLAN_H_
