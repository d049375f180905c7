#include "core/generator_plan.h"

#include <algorithm>
#include <span>
#include <utility>

#include "nn/ir/trace.h"

namespace atnn::core {

StatusOr<std::shared_ptr<const nn::ir::CompiledPlan>> CompileGeneratorPlan(
    const AtnnModel& model, const data::EntityTable& item_profiles,
    int64_t max_batch, std::shared_ptr<const void> keepalive) {
  if (item_profiles.num_rows() == 0) {
    return Status::FailedPrecondition(
        "empty item table: nothing to probe the trace with");
  }
  if (max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  // Trace with a small multi-row probe so batch-varying shapes are
  // unambiguous (a 1-row probe could not tell a batch apart from a static
  // [1, d] value). Any row works — only shapes matter, and row 0 always
  // exists.
  constexpr int64_t kProbeBatch = 3;
  const int64_t probe_rows[kProbeBatch] = {0, 0, 0};
  const data::BlockBatch probe =
      data::GatherBlock(item_profiles, probe_rows);
  ATNN_ASSIGN_OR_RETURN(
      nn::ir::Graph graph,
      nn::ir::TraceGraph(kProbeBatch, [&model, &probe]() {
        return model.GeneratorItemVector(probe);
      }));
  nn::ir::CompiledPlan::Options options;
  options.max_batch = max_batch;
  ATNN_ASSIGN_OR_RETURN(
      std::unique_ptr<nn::ir::CompiledPlan> plan,
      nn::ir::CompiledPlan::Compile(std::move(graph), options,
                                    std::move(keepalive)));
  return std::shared_ptr<const nn::ir::CompiledPlan>(std::move(plan));
}

StatusOr<std::vector<double>> ScoreItemsWithPlan(
    const nn::ir::CompiledPlan& plan, const PopularityPredictor& predictor,
    const data::EntityTable& item_profiles,
    const std::vector<int64_t>& item_rows) {
  std::vector<double> scores;
  scores.reserve(item_rows.size());
  nn::ir::PlanScratch scratch;
  const int64_t cols = plan.output_cols();
  const size_t max_batch = static_cast<size_t>(plan.max_batch());
  for (size_t begin = 0; begin < item_rows.size(); begin += max_batch) {
    const size_t end = std::min(begin + max_batch, item_rows.size());
    const std::span<const int64_t> chunk(item_rows.data() + begin,
                                         end - begin);
    const data::BlockBatch block = data::GatherBlock(item_profiles, chunk);
    ATNN_ASSIGN_OR_RETURN(
        const float* vectors,
        plan.Execute({&block.categorical, &block.numeric},
                     static_cast<int64_t>(chunk.size()), &scratch));
    for (size_t r = 0; r < chunk.size(); ++r) {
      scores.push_back(
          predictor.ScoreVector(vectors + static_cast<int64_t>(r) * cols,
                                cols));
    }
  }
  return scores;
}

}  // namespace atnn::core
