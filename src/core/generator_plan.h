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

namespace atnn::core {

/// Traces one generator forward g(X_ip) of `model` against a probe block
/// gathered from `item_profiles`, runs the optimization pipeline, and
/// lowers the result to a CompiledPlan sized for `max_batch` rows.
/// `keepalive` (may be null) is pinned for the plan's lifetime — pass the
/// owning handle of the model whose parameter buffers the graph borrows;
/// callers that guarantee the model outlives the plan may leave it null.
///
/// Fails when the item table is empty or the forward uses an op outside
/// the IR vocabulary. The plan is the only fp32 serving executor, so a
/// caller that cannot compile cannot serve: the runtime rejects such a
/// snapshot at publish and the CLIs exit with the Status.
StatusOr<std::shared_ptr<const nn::ir::CompiledPlan>> CompileGeneratorPlan(
    const AtnnModel& model, const data::EntityTable& item_profiles,
    int64_t max_batch, std::shared_ptr<const void> keepalive = nullptr);

/// Scores `item_rows` through the compiled plan: gathers blocks of up to
/// plan.max_batch() rows, executes each through the pre-planned program,
/// and reduces every generated vector with the predictor's O(1) dot
/// product — the same math as PopularityPredictor::ScoreItems, row for
/// row bitwise-identical because the plan reproduces the tape forward
/// exactly. InvalidArgument if the table's shape drifted from the traced
/// graph or an id is outside its embedding table.
StatusOr<std::vector<double>> ScoreItemsWithPlan(
    const nn::ir::CompiledPlan& plan, const PopularityPredictor& predictor,
    const data::EntityTable& item_profiles,
    const std::vector<int64_t>& item_rows);

}  // namespace atnn::core

#endif  // ATNN_CORE_GENERATOR_PLAN_H_
