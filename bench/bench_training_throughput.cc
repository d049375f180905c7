// Training + evaluation pipeline throughput: what the ThreadPool buys on
// the offline side of the system.
//
//   (a) TrainAtnnModel serial vs. with TrainOptions::pool — batch t+1 is
//       gathered on the pool while batch t runs forward/backward.
//   (b) EvaluateAtnnAuc and ScoreItemsPairwise serial vs. pool-parallel
//       chunked evaluation, reported in items/sec. Gate: parallel AUC
//       evaluation >= 1.5x serial items/sec on a multi-core host.
//
// That parallelism never changes a result (bitwise loss histories, exact
// AUC and pairwise scores) is TrainerPipelineTest's contract.
//
// Weights are left at their seeded initialization for the eval sweep
// (throughput depends on tower shapes, not converged weights); the
// training sweep trains for real since that is what is being timed.
//
//   $ ./build/bench/bench_training_throughput

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "nn/arena.h"
#include "perf_common.h"

namespace atnn::bench {
namespace {

size_t PoolThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<size_t>(hw > 8 ? 8 : hw) : 2;
}

int Run() {
  const data::TmallConfig world = PaperScaleTmallConfig();
  data::TmallDataset dataset = data::GenerateTmallDataset(world);
  core::NormalizeTmallInPlace(&dataset);

  core::AtnnConfig model_config;
  model_config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  model_config.seed = 7;

  const core::TrainOptions options = BenchTrainOptions();

  ThreadPool pool(PoolThreads());
  std::printf("pipeline bench: %lld interactions, %d epochs, %zu pool "
              "threads\n\n",
              static_cast<long long>(world.num_interactions), options.epochs,
              pool.num_threads());

  TablePrinter table("training + evaluation pipeline throughput");
  table.SetHeader({"stage", "mode", "wall_s", "items/s", "speedup"});

  // --- (a) training: serial vs. prefetched ---
  const auto train_seconds = [&](ThreadPool* p) {
    core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                          *dataset.item_stats_schema, model_config);
    core::TrainOptions run_options = options;
    run_options.pool = p;
    Stopwatch timer;
    TrainAtnnModel(&model, dataset, run_options);
    return timer.ElapsedSeconds();
  };
  const double serial_train_s = train_seconds(nullptr);
  const double prefetch_train_s = train_seconds(&pool);

  const double steps = static_cast<double>(dataset.train_indices.size()) *
                       options.epochs;
  table.AddRow({"train ATNN", "serial", TablePrinter::Num(serial_train_s, 2),
                TablePrinter::Num(steps / serial_train_s, 0), "1.00"});
  table.AddRow({"train ATNN", "prefetch",
                TablePrinter::Num(prefetch_train_s, 2),
                TablePrinter::Num(steps / prefetch_train_s, 0),
                TablePrinter::Num(serial_train_s / prefetch_train_s, 2)});

  // --- (b) evaluation: serial vs. pool-parallel chunked scoring ---
  core::AtnnModel eval_model(*dataset.user_schema,
                             *dataset.item_profile_schema,
                             *dataset.item_stats_schema, model_config);
  constexpr int kEvalRepeats = 5;
  constexpr int kEvalBatch = 256;

  const auto time_auc = [&](ThreadPool* p) {
    Stopwatch timer;
    for (int r = 0; r < kEvalRepeats; ++r) {
      core::EvaluateAtnnAuc(eval_model, dataset, dataset.test_indices,
                            core::CtrPath::kGenerator, kEvalBatch, p);
    }
    return timer.ElapsedSeconds();
  };
  const double auc_serial_s = time_auc(nullptr);
  const double auc_parallel_s = time_auc(&pool);
  const double auc_items =
      static_cast<double>(dataset.test_indices.size()) * kEvalRepeats;
  const double auc_speedup = auc_serial_s / auc_parallel_s;
  table.AddRow({"eval AUC", "serial", TablePrinter::Num(auc_serial_s, 2),
                TablePrinter::Num(auc_items / auc_serial_s, 0), "1.00"});
  table.AddRow({"eval AUC", "parallel", TablePrinter::Num(auc_parallel_s, 2),
                TablePrinter::Num(auc_items / auc_parallel_s, 0),
                TablePrinter::Num(auc_speedup, 2)});

  const auto group = core::SelectActiveUsers(dataset, 300);
  const auto time_pairwise = [&](ThreadPool* p) {
    Stopwatch timer;
    core::ScoreItemsPairwise(eval_model, dataset, dataset.new_items, group,
                             64, p);
    return timer.ElapsedSeconds();
  };
  const double pw_serial_s = time_pairwise(nullptr);
  const double pw_parallel_s = time_pairwise(&pool);
  const double pw_items = static_cast<double>(dataset.new_items.size());
  table.AddRow({"pairwise", "serial", TablePrinter::Num(pw_serial_s, 2),
                TablePrinter::Num(pw_items / pw_serial_s, 0), "1.00"});
  table.AddRow({"pairwise", "parallel", TablePrinter::Num(pw_parallel_s, 2),
                TablePrinter::Num(pw_items / pw_parallel_s, 0),
                TablePrinter::Num(pw_serial_s / pw_parallel_s, 2)});

  table.Print();
  std::printf("\n");

  // The training thread's arena workspace peak (the steady-state bytes a
  // step reuses instead of heap-allocating); that a warmed step allocates
  // nothing is ArenaScopeTest's contract.
  std::printf("arena high-water mark: %.1f KiB in use, %.1f KiB reserved\n",
              nn::ThreadArena().HighWaterMark() / 1024.0,
              nn::ThreadArena().BytesReserved() / 1024.0);

  // A single-core host ties by construction: no gate there.
  if (std::thread::hardware_concurrency() < 2) {
    std::printf("SKIP: parallel eval gate (single-core host)\n");
    return 0;
  }
  Gates gates;
  gates.Check(auc_speedup >= 1.5,
              "parallel eval AUC >= 1.5x serial items/sec");
  return gates.exit_code();
}

}  // namespace
}  // namespace atnn::bench

int main() { return atnn::bench::Run(); }
