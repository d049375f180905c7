#ifndef ATNN_CORE_GENERATOR_PLAN_H_
#define ATNN_CORE_GENERATOR_PLAN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/atnn.h"
#include "core/popularity.h"
#include "data/schema.h"
#include "nn/ir/plan.h"
#include "nn/layers.h"

namespace atnn::core {

/// One [rows, cols] weight of the generator in its serving format: fp32
/// borrowed from a model, or, with `fp32` null, the int8/bf16 buffers of a
/// quantized artifact (`low.rows` is taken from `rows`).
struct GeneratorWeights {
  int64_t rows = 0;
  int64_t cols = 0;
  const float* fp32 = nullptr;
  nn::ir::LowPrecisionWeights low;
};

/// One categorical field: its feature hash (0 = ids index the table
/// directly) and its [rows, width] table.
struct GeneratorField {
  int64_t hash_buckets = 0;
  GeneratorWeights table;
};

/// One dense layer act(x W + b), W [in, out], b [1, out].
struct GeneratorDense {
  GeneratorWeights weight;
  const float* bias = nullptr;
  nn::Activation act = nn::Activation::kIdentity;
};

/// One Deep & Cross layer over the tower input width d: w [d, 1], b [1, d].
struct GeneratorCross {
  const float* w = nullptr;
  const float* b = nullptr;
};

/// The generator g(X_ip) as every precision serves it (DESIGN.md §16):
/// x0 = concat(one lookup per field, the dense block); the deep stack over
/// x0; then the head over concat(cross stack over x0, deep) for a Deep &
/// Cross tower, or over the deep output alone when `cross` is empty. Only
/// pointers: the buffers stay with the model or artifact.
struct GeneratorSpec {
  std::vector<GeneratorField> fields;
  int64_t dense_cols = 0;
  std::vector<GeneratorDense> deep;
  std::vector<GeneratorCross> cross;
  GeneratorDense head;
};

/// Builds the generator graph of `spec` and lowers it to a CompiledPlan for
/// batches of up to `max_batch` rows. Each weight constant sits just before
/// the node that reads it, so one spec always yields the same graph text,
/// steps and scratch layout. `keepalive` (may be null) is pinned for the
/// plan's lifetime — pass the owner of the buffers the spec points at.
///
/// First checks that the plan can read `item_profiles`: FailedPrecondition
/// for a table with no rows; InvalidArgument when it has no schema, another
/// categorical field count, an unhashed field whose vocab runs past its
/// table, or a numeric width other than `dense_cols`.
StatusOr<std::shared_ptr<const nn::ir::CompiledPlan>> CompileGeneratorSpec(
    const GeneratorSpec& spec, const data::EntityTable& item_profiles,
    int64_t max_batch, std::shared_ptr<const void> keepalive = nullptr);

/// CompileGeneratorSpec over `model`'s fp32 generator path (its generator
/// embedding bag and tower). `keepalive` (may be null) should own the
/// model; callers that guarantee the model outlives the plan may leave it
/// null. The plan reproduces the tape forward bitwise under the default
/// fused epilogues. The plan is the only fp32 serving executor, so a
/// caller that cannot compile cannot serve: the runtime rejects such a
/// snapshot at publish and the CLIs exit with the Status.
StatusOr<std::shared_ptr<const nn::ir::CompiledPlan>> CompileGeneratorPlan(
    const AtnnModel& model, const data::EntityTable& item_profiles,
    int64_t max_batch, std::shared_ptr<const void> keepalive = nullptr);

/// Scores `item_rows` through the compiled plan: gathers blocks of up to
/// plan.max_batch() rows into one reused buffer, executes each through the
/// pre-planned program, and reduces every generated vector with the
/// predictor's O(1) dot product — the same math as
/// PopularityPredictor::ScoreItems, row for row bitwise-identical for an
/// fp32 plan because the plan reproduces the tape forward exactly. InvalidArgument if the table's shape drifted from
/// the plan's graph or an id is outside its embedding table.
StatusOr<std::vector<double>> ScoreItemsWithPlan(
    const nn::ir::CompiledPlan& plan, const PopularityPredictor& predictor,
    const data::EntityTable& item_profiles,
    const std::vector<int64_t>& item_rows);

}  // namespace atnn::core

#endif  // ATNN_CORE_GENERATOR_PLAN_H_
