// Compiled-plan inference bench: the promises of the graph IR + compiled
// execution path (DESIGN.md §16), measured and gated.
//
//   (a) CORRECTNESS — plan outputs are BITWISE identical to the autograd
//       tape forward of the model the plan was built from, across batch
//       sizes 1 / 7 / max_batch. Hard gate everywhere: bitwise equality is
//       the contract that lets the runtime swap execution strategies
//       without revalidating scores.
//   (b) SPEED — single-row miss-path scoring (the runtime's worst case:
//       tiny batches dominated by tape-walk overhead) must run >= 1.3x
//       faster through the compiled plan than through the tape.
//       Report-only under --smoke / sanitizers (instrumented builds warp
//       the ratio).
//   (c) ZERO-ALLOC — steady-state plan executions perform exactly zero
//       heap allocations: the layout is fixed at compile time and the
//       scratch is pre-warmed. Counted with a replacement global operator
//       new; report-only under sanitizers (their runtimes own the
//       allocator).
//   (d) SERVING — an InferenceRuntime answers a replay fresh with scores
//       bitwise identical to the tape reference
//       (PopularityPredictor::ScoreItems), with plan.compiled == 1, plan
//       executions > 0 and zero failed plan executions.
//
// Emits BENCH_compiled.json for dashboards.
//
//   $ ./build/bench/bench_compiled            # full replay, hard gates
//   $ ./build/bench/bench_compiled --smoke    # CI sanitizer budget

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/generator_plan.h"
#include "core/popularity.h"
#include "nn/arena.h"
#include "nn/autograd.h"
#include "nn/ir/plan.h"
#include "runtime/inference_runtime.h"
#include "serving/popularity_index.h"

// ---------------------------------------------------------------------------
// Counting global allocator (same scheme as bench_kernels): every operator
// new bumps one atomic; the zero-alloc gate snapshots it around a window of
// plan executions and requires the delta to be exactly zero.
// ---------------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* ptr = alignment > alignof(std::max_align_t)
                  ? std::aligned_alloc(alignment,
                                       (size + alignment - 1) / alignment *
                                           alignment)
                  : std::malloc(size);
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = CountedAlloc(size, 0);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = CountedAlloc(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace atnn::bench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

struct JsonWriter {
  std::string body;
  void Add(const std::string& key, double value) {
    body += (body.empty() ? "" : ",\n") + std::string("  \"") + key +
            "\": " + std::to_string(value);
  }
  bool Flush(const std::string& path) {
    std::ofstream out(path, std::ios::trunc);
    out << "{\n" << body << "\n}\n";
    return out.good();
  }
};

/// Tape forward for `rows` of the item table, materialized into an owning
/// tensor (the arena scratch dies with the scope).
nn::Tensor TapeForward(const core::AtnnModel& model,
                       const data::EntityTable& items,
                       std::span<const int64_t> rows) {
  const nn::NoGradGuard no_grad;
  const nn::ArenaScope arena_scope;
  const data::BlockBatch block = data::GatherBlock(items, rows);
  const nn::Var vectors = model.GeneratorItemVector(block);
  nn::Tensor out(vectors.rows(), vectors.cols());
  std::memcpy(out.data(), vectors.value().data(),
              static_cast<size_t>(vectors.value().numel()) * sizeof(float));
  return out;
}

int Run(bool smoke) {
  int failures = 0;
  const auto gate = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS:" : "FAIL:", what.c_str());
    if (!ok) ++failures;
  };
  const auto report_or_gate = [&](bool hard, bool ok,
                                  const std::string& what) {
    if (hard) {
      gate(ok, what);
    } else {
      std::printf("%s %s (report-only)\n", ok ? "PASS:" : "WARN:",
                  what.c_str());
    }
  };
  JsonWriter json;
  std::printf("compiled-plan bench: %s%s\n\n",
              kSanitized ? "sanitized build" : "plain build",
              smoke ? ", smoke budget" : "");

  // --- world + model (untrained init: identical compute, seconds faster) ---
  data::TmallConfig world = PaperScaleTmallConfig();
  world.num_users = smoke ? 200 : 1000;
  world.num_items = smoke ? 500 : 2000;
  world.num_new_items = smoke ? 150 : 600;
  world.num_interactions = smoke ? 8000 : 50000;
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
  std::printf("plan: %zu steps, %zu scratch bytes\n", plan.num_steps(),
              plan.plan_bytes());
  json.Add("plan_steps", static_cast<double>(plan.num_steps()));
  json.Add("plan_bytes", static_cast<double>(plan.plan_bytes()));

  Rng rng(world.seed ^ 0xc0317ed);
  const auto random_rows = [&](int64_t count) {
    std::vector<int64_t> rows;
    rows.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      rows.push_back(static_cast<int64_t>(rng.UniformInt(
          static_cast<uint64_t>(dataset.item_profiles.num_rows()))));
    }
    return rows;
  };

  // --- (a) bitwise equality, batches 1/7/64 ---
  {
    nn::ir::PlanScratch scratch;
    bool all_equal = true;
    for (const int64_t batch : {int64_t{1}, int64_t{7}, kMaxBatch}) {
      const std::vector<int64_t> rows = random_rows(batch);
      const nn::Tensor expected =
          TapeForward(model, dataset.item_profiles, rows);
      const data::BlockBatch block =
          data::GatherBlock(dataset.item_profiles, rows);
      const auto out =
          plan.Execute({&block.categorical, &block.numeric}, batch, &scratch);
      ATNN_CHECK(out.ok()) << out.status().ToString();
      all_equal = all_equal &&
                  std::memcmp(*out, expected.data(),
                              static_cast<size_t>(expected.numel()) *
                                  sizeof(float)) == 0;
    }
    gate(all_equal, "plan bitwise-identical to the tape (batches 1/7/64)");
  }

  // --- (c) zero allocations per steady-state execution ---
  {
    nn::ir::PlanScratch scratch;
    const std::vector<int64_t> rows = random_rows(kMaxBatch);
    const data::BlockBatch block =
        data::GatherBlock(dataset.item_profiles, rows);
    const nn::ir::PlanInput input{&block.categorical, &block.numeric};
    ATNN_CHECK(plan.Execute(input, kMaxBatch, &scratch).ok());  // warm
    const uint64_t before = AllocCount();
    constexpr int kSteadyRuns = 100;
    for (int i = 0; i < kSteadyRuns; ++i) {
      ATNN_CHECK(plan.Execute(input, kMaxBatch, &scratch).ok());
    }
    const uint64_t allocs = AllocCount() - before;
    std::printf("steady state: %llu allocations across %d executions\n",
                static_cast<unsigned long long>(allocs), kSteadyRuns);
    json.Add("steady_state_allocs", static_cast<double>(allocs));
    report_or_gate(!kSanitized, allocs == 0,
                   "zero heap allocations per warmed plan execution");
  }

  // --- (b) single-row miss-path speedup ---
  {
    const int64_t iters = smoke ? 300 : 3000;
    // Pre-gathered single-row blocks: both sides time pure forward + dot,
    // the part the compiled plan replaces (batch assembly is identical and
    // allocates by design).
    const std::vector<int64_t> rows = random_rows(iters);
    std::vector<data::BlockBatch> blocks;
    blocks.reserve(static_cast<size_t>(iters));
    for (int64_t i = 0; i < iters; ++i) {
      blocks.push_back(data::GatherBlock(
          dataset.item_profiles, std::span<const int64_t>(&rows[i], 1)));
    }
    const auto group = core::SelectActiveUsers(dataset, smoke ? 100 : 300);
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
      const auto out = plan.Execute({&block.categorical, &block.numeric}, 1,
                                    &scratch);
      ATNN_CHECK(out.ok());
      plan_sum += predictor.ScoreVector(*out, plan.output_cols());
    }
    const double plan_s = plan_timer.ElapsedSeconds();

    const double speedup = tape_s / plan_s;
    TablePrinter table("single-row miss-path scoring");
    table.SetHeader({"path", "wall_s", "rows/s"});
    table.AddRow({"tape", TablePrinter::Num(tape_s, 4),
                  TablePrinter::Num(static_cast<double>(iters) / tape_s, 0)});
    table.AddRow({"plan", TablePrinter::Num(plan_s, 4),
                  TablePrinter::Num(static_cast<double>(iters) / plan_s, 0)});
    table.Print();
    std::printf("speedup: %.2fx (checksums %.6f vs %.6f)\n", speedup,
                tape_sum, plan_sum);
    json.Add("single_row_speedup", speedup);
    json.Add("tape_rows_per_s", static_cast<double>(iters) / tape_s);
    json.Add("plan_rows_per_s", static_cast<double>(iters) / plan_s);
    gate(plan_sum == tape_sum,
         "single-row scores identical across both paths");
    report_or_gate(!smoke && !kSanitized, speedup >= 1.3,
                   "compiled single-row scoring >= 1.3x faster than tape");
  }

  // --- (d) runtime serving: fresh answers equal the tape, plan counters ---
  {
    const auto group = core::SelectActiveUsers(dataset, smoke ? 100 : 300);
    const auto predictor =
        core::PopularityPredictor::Build(model, dataset, group);
    const std::vector<double> tape_scores =
        predictor.ScoreItems(model, dataset, dataset.new_items);
    auto prior = std::make_shared<serving::PopularityIndex>();
    prior->BulkLoad(dataset.new_items, tape_scores);

    runtime::ServingSnapshot snapshot;
    snapshot.model = runtime::Unowned(&model);
    snapshot.predictor = runtime::Unowned(&predictor);
    snapshot.item_profiles = runtime::Unowned(&dataset.item_profiles);
    snapshot.tag = "bench-compiled";

    runtime::RuntimeConfig config;
    config.num_workers = 2;
    config.enable_score_cache = false;  // every request walks the miss path
    config.prior = prior;
    runtime::InferenceRuntime runtime(config);
    ATNN_CHECK(runtime.Publish(snapshot).ok());
    std::vector<double> scores;
    bool all_fresh = true;
    for (const int64_t item : dataset.new_items) {
      const auto result = runtime.Score(item);
      ATNN_CHECK(result.ok()) << result.status().ToString();
      scores.push_back(result->score);
      all_fresh = all_fresh && result->tier == runtime::ServingTier::kFresh;
    }
    runtime.Shutdown();
    const runtime::StatsSnapshot stats = runtime.stats();
    // The prior holds the same scores, so only fresh answers prove the
    // forward produced them.
    gate(all_fresh && scores == tape_scores,
         "runtime answers fresh and bitwise equal to the tape scores");
    gate(stats.plan_compiled == 1 && stats.plan_executions > 0 &&
             stats.plan_exec_fallback == 0,
         "runtime served through the plan with zero failed executions");
    json.Add("runtime_plan_executions",
             static_cast<double>(stats.plan_executions));
    json.Add("runtime_arena_high_water_bytes",
             static_cast<double>(stats.arena_high_water_bytes));
  }

  if (!json.Flush("BENCH_compiled.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_compiled.json\n");
  } else {
    std::printf("wrote BENCH_compiled.json\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace atnn::bench

int main(int argc, char** argv) {
  atnn::FlagParser flags("Compiled execution plan benchmark");
  flags.AddBool("smoke", false,
                "smaller world and fewer iterations for CI sanitizer jobs; "
                "the speedup gate becomes report-only, bitwise / zero-alloc "
                "/ serving gates stay hard (zero-alloc is report-only under "
                "sanitizers)");
  const atnn::Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  return atnn::bench::Run(flags.GetBool("smoke"));
}
