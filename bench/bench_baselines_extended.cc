// Beyond-the-paper comparison: the deep related-work CTR models the paper
// cites (Section II-B) on the same synthetic Tmall dataset and the same
// cold-start protocol as Table I — Concat-DNN (the paper's Figure 2 model),
// Wide & Deep and DeepFM next to TNN-DCN and ATNN. Shows where the
// two-tower + adversarial design sits in the model landscape it grew out
// of.

#include <cstdio>

#include "baselines/baseline_trainer.h"
#include "baselines/concat_dnn.h"
#include "baselines/deepfm.h"
#include "baselines/wide_deep.h"
#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace atnn::bench {
namespace {

struct Row {
  std::string name;
  double cold = 0.0;
  double complete = 0.0;
  double seconds = 0.0;
};

std::string Degradation(const Row& row) {
  return TablePrinter::Num(
             (row.cold - row.complete) / row.complete * 100.0, 2) +
         "%";
}

/// Evaluates an autograd baseline on complete and stats-masked batches.
template <typename Model>
Row EvalDeep(const std::string& name, Model* model,
             const data::TmallDataset& dataset,
             const core::TrainOptions& options) {
  Stopwatch timer;
  baselines::TrainCtrBaseline(model, dataset, options);
  Row row;
  row.name = name;
  row.complete =
      baselines::EvaluateCtrBaselineAuc(*model, dataset,
                                        dataset.test_indices);
  // Cold: identical batches with the stats slab mean-imputed.
  row.cold = metrics::Auc(
      core::ScoreChunks(dataset.test_indices, 1024,
                        [&](std::span<const int64_t> chunk) {
                          data::CtrBatch batch = MakeCtrBatch(dataset, chunk);
                          core::MaskStatsAsMissing(&batch.item_stats);
                          return model->PredictCtr(batch);
                        }),
      core::GatherLabels(dataset, dataset.test_indices));
  row.seconds = timer.ElapsedSeconds();
  std::printf("[baselines] %-12s done (%.1fs)\n", name.c_str(), row.seconds);
  return row;
}

void Run() {
  data::TmallDataset dataset =
      data::GenerateTmallDataset(PaperScaleTmallConfig());
  core::NormalizeTmallInPlace(&dataset);

  std::vector<Row> rows;

  // --- deep models ---
  {
    baselines::ConcatDnnConfig config;
    config.hidden_dims = {64, 32};
    baselines::ConcatDnnModel model(*dataset.user_schema,
                                    *dataset.item_profile_schema,
                                    *dataset.item_stats_schema, config);
    rows.push_back(EvalDeep("Concat-DNN", &model, dataset,
                            BenchTrainOptions()));
  }
  {
    baselines::WideDeepConfig config;
    config.deep_dims = {64, 32};
    baselines::WideDeepModel model(*dataset.user_schema,
                                   *dataset.item_profile_schema,
                                   *dataset.item_stats_schema, config);
    rows.push_back(EvalDeep("Wide&Deep", &model, dataset,
                            BenchTrainOptions()));
  }
  {
    baselines::DeepFmConfig config;
    config.deep_dims = {64, 32};
    baselines::DeepFmModel model(*dataset.user_schema,
                                 *dataset.item_profile_schema,
                                 *dataset.item_stats_schema, config);
    rows.push_back(EvalDeep("DeepFM", &model, dataset,
                            BenchTrainOptions()));
  }

  // --- the paper's models, for context ---
  {
    Stopwatch timer;
    core::TwoTowerConfig config;
    config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = 7;
    core::TwoTowerModel model(*dataset.user_schema,
                              *dataset.item_profile_schema,
                              *dataset.item_stats_schema, config);
    core::TrainTwoTowerModel(&model, dataset, BenchTrainOptions());
    Row row;
    row.name = "TNN-DCN";
    row.complete =
        core::EvaluateTwoTowerAuc(model, dataset, dataset.test_indices);
    row.cold = core::EvaluateTwoTowerAucMissingStats(model, dataset,
                                                     dataset.test_indices);
    row.seconds = timer.ElapsedSeconds();
    rows.push_back(row);
    std::printf("[baselines] TNN-DCN      done (%.1fs)\n", row.seconds);
  }
  {
    Stopwatch timer;
    core::AtnnConfig config;
    config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = 7;
    core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                          *dataset.item_stats_schema, config);
    core::TrainAtnnModel(&model, dataset, BenchTrainOptions());
    Row row;
    row.name = "ATNN";
    row.complete = core::EvaluateAtnnAuc(
        model, dataset, dataset.test_indices, core::CtrPath::kEncoder);
    row.cold = core::EvaluateAtnnAuc(model, dataset, dataset.test_indices,
                                     core::CtrPath::kGenerator);
    row.seconds = timer.ElapsedSeconds();
    rows.push_back(row);
    std::printf("[baselines] ATNN         done (%.1fs)\n", row.seconds);
  }

  TablePrinter table(
      "Extended baseline comparison on the Table I protocol (cold start = "
      "missing item statistics; ATNN uses its generator path)");
  table.SetHeader({"Model", "AUC cold start", "AUC complete", "Degradation",
                   "train s"});
  for (const Row& row : rows) {
    table.AddRow({row.name, TablePrinter::Num(row.cold),
                  TablePrinter::Num(row.complete), Degradation(row),
                  TablePrinter::Num(row.seconds, 1)});
  }
  table.Print();
}

}  // namespace
}  // namespace atnn::bench

int main() {
  atnn::bench::Run();
  return 0;
}
