// Compiled-plan inference bench (DESIGN.md §16): single-row miss-path
// scoring (the runtime's worst case: tiny batches dominated by tape-walk
// overhead) must run >= 1.3x faster through the compiled plan than
// through the tape.
//
// What the plan promises beyond speed are tests: plan scores bitwise equal
// to the tape at several max_batch sizes (GeneratorPlanTowerTest), zero
// heap allocations per warmed execution (DiffHarnessAllocationTest), and a
// runtime answering fresh and bitwise with the plan counters
// (CompiledServingTowerTest).
//
// Emits BENCH_compiled.json for dashboards.
//
//   $ ./build/bench/bench_compiled

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/generator_plan.h"
#include "core/popularity.h"
#include "nn/arena.h"
#include "nn/autograd.h"
#include "nn/ir/plan.h"
#include "perf_common.h"

namespace atnn::bench {
namespace {

int Run() {
  JsonWriter json;

  // --- world + model (untrained init: identical compute, seconds faster) ---
  data::TmallConfig world = PaperScaleTmallConfig();
  world.num_users = 1000;
  world.num_items = 2000;
  world.num_new_items = 600;
  world.num_interactions = 50000;
  data::TmallDataset dataset = data::GenerateTmallDataset(world);
  core::NormalizeTmallInPlace(&dataset);

  core::AtnnConfig model_config;
  model_config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  model_config.seed = 7;
  core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                        *dataset.item_stats_schema, model_config);

  constexpr int64_t kMaxBatch = 64;
  const auto plan_or =
      core::CompileGeneratorPlan(model, dataset.item_profiles, kMaxBatch);
  if (!plan_or.ok()) {
    std::fprintf(stderr, "FATAL: compile failed: %s\n",
                 plan_or.status().ToString().c_str());
    return 1;
  }
  const nn::ir::CompiledPlan& plan = **plan_or;
  std::printf("compiled-plan bench\nplan: %zu steps, %zu scratch bytes\n",
              plan.num_steps(), plan.plan_bytes());
  json.Add("plan_steps", static_cast<double>(plan.num_steps()));
  json.Add("plan_bytes", static_cast<double>(plan.plan_bytes()));

  // --- single-row miss-path speedup ---
  constexpr int64_t kIters = 3000;
  // Pre-gathered single-row blocks: both sides time pure forward + dot,
  // the part the compiled plan replaces (batch assembly is identical and
  // allocates by design).
  Rng rng(world.seed ^ 0xc0317ed);
  std::vector<data::BlockBatch> blocks;
  blocks.reserve(static_cast<size_t>(kIters));
  for (int64_t i = 0; i < kIters; ++i) {
    const int64_t row = static_cast<int64_t>(rng.UniformInt(
        static_cast<uint64_t>(dataset.item_profiles.num_rows())));
    blocks.push_back(data::GatherBlock(dataset.item_profiles,
                                       std::span<const int64_t>(&row, 1)));
  }
  const auto group = core::SelectActiveUsers(dataset, 300);
  const auto predictor =
      core::PopularityPredictor::Build(model, dataset, group);

  double tape_sum = 0.0;
  Stopwatch tape_timer;
  for (const data::BlockBatch& block : blocks) {
    const nn::NoGradGuard no_grad;
    const nn::ArenaScope arena_scope;
    const nn::Var vec = model.GeneratorItemVector(block);
    tape_sum += predictor.ScoreVector(vec.value().data(), vec.cols());
  }
  const double tape_s = tape_timer.ElapsedSeconds();

  nn::ir::PlanScratch scratch;
  double plan_sum = 0.0;
  Stopwatch plan_timer;
  for (const data::BlockBatch& block : blocks) {
    const auto out =
        plan.Execute({&block.categorical, &block.numeric}, 1, &scratch);
    ATNN_CHECK(out.ok());
    plan_sum += predictor.ScoreVector(*out, plan.output_cols());
  }
  const double plan_s = plan_timer.ElapsedSeconds();

  const double speedup = tape_s / plan_s;
  TablePrinter table("single-row miss-path scoring");
  table.SetHeader({"path", "wall_s", "rows/s"});
  table.AddRow({"tape", TablePrinter::Num(tape_s, 4),
                TablePrinter::Num(static_cast<double>(kIters) / tape_s, 0)});
  table.AddRow({"plan", TablePrinter::Num(plan_s, 4),
                TablePrinter::Num(static_cast<double>(kIters) / plan_s, 0)});
  table.Print();
  std::printf("speedup: %.2fx (checksums %.6f vs %.6f)\n", speedup, tape_sum,
              plan_sum);
  json.Add("single_row_speedup", speedup);
  json.Add("tape_rows_per_s", static_cast<double>(kIters) / tape_s);
  json.Add("plan_rows_per_s", static_cast<double>(kIters) / plan_s);
  Gates gates;
  gates.Check(speedup >= 1.3,
              "compiled single-row scoring >= 1.3x faster than tape");

  if (!json.Flush("BENCH_compiled.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_compiled.json\n");
  } else {
    std::printf("wrote BENCH_compiled.json\n");
  }
  return gates.exit_code();
}

}  // namespace
}  // namespace atnn::bench

int main() { return atnn::bench::Run(); }
