// Reproduces Table I: "Results of offline experiments on item generation
// ability of ATNN" — AUC with only item profiles (cold-start scenario) vs
// complete item features (ideal baseline), and the relative degradation.
//
// Protocol: every model is trained once on complete item features (the
// production training condition). At evaluation time the cold-start column
// withholds the item statistics — a new arrival has no PV/UV/behaviour
// counts, so the baselines receive the "missing statistics"
// representation (train-mean imputation), while ATNN
// switches to its generator path, which was built for exactly this case.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "gbdt/gbdt.h"
#include "metrics/metrics.h"

namespace atnn::bench {
namespace {

/// GBDT feature matrix with the statistics columns forced to the missing
/// representation.
nn::Tensor AssembleGbdtFeaturesMissingStats(
    const data::TmallDataset& dataset, const std::vector<int64_t>& indices) {
  data::CtrBatch batch = MakeCtrBatch(dataset, indices);
  core::MaskStatsAsMissing(&batch.item_stats);
  return core::ConcatForGbdt(
      {&batch.user, &batch.item_profile, &batch.item_stats});
}

struct ColdWarmAucs {
  double cold = 0.0;
  double complete = 0.0;
};

ColdWarmAucs TrainAndEvalGbdt(const data::TmallDataset& dataset) {
  gbdt::GbdtConfig config;
  config.num_trees = 60;
  config.learning_rate = 0.1;
  config.max_bins = 32;
  config.subsample = 0.7;
  config.tree.max_depth = 6;
  config.tree.colsample = 0.8;
  config.tree.min_samples_leaf = 40;
  config.seed = 7;

  const nn::Tensor train_x =
      AssembleGbdtFeatures(dataset, dataset.train_indices, /*use_stats=*/true);
  const std::vector<float> train_y =
      core::GatherLabels(dataset, dataset.train_indices);
  gbdt::GbdtModel model;
  model.Train(train_x, train_y, config);

  const std::vector<float> test_y =
      core::GatherLabels(dataset, dataset.test_indices);
  ColdWarmAucs aucs;
  const nn::Tensor test_complete =
      AssembleGbdtFeatures(dataset, dataset.test_indices, /*use_stats=*/true);
  aucs.complete =
      metrics::Auc(model.PredictProbability(test_complete), test_y);
  const nn::Tensor test_cold =
      AssembleGbdtFeaturesMissingStats(dataset, dataset.test_indices);
  aucs.cold = metrics::Auc(model.PredictProbability(test_cold), test_y);
  return aucs;
}

ColdWarmAucs TrainAndEvalTwoTower(const data::TmallDataset& dataset,
                                  nn::TowerKind kind) {
  core::TwoTowerConfig config;
  config.tower = BenchTowerConfig(kind);
  config.use_item_stats = true;
  config.seed = 7;
  core::TwoTowerModel model(*dataset.user_schema,
                            *dataset.item_profile_schema,
                            *dataset.item_stats_schema, config);
  core::TrainTwoTowerModel(&model, dataset, BenchTrainOptions());
  ColdWarmAucs aucs;
  aucs.complete =
      core::EvaluateTwoTowerAuc(model, dataset, dataset.test_indices);
  aucs.cold = core::EvaluateTwoTowerAucMissingStats(model, dataset,
                                                    dataset.test_indices);
  return aucs;
}

ColdWarmAucs TrainAndEvalAtnn(const data::TmallDataset& dataset) {
  core::AtnnConfig config;
  config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  config.lambda = 0.1f;  // the paper's setting
  config.seed = 7;
  core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                        *dataset.item_stats_schema, config);
  core::TrainAtnnModel(&model, dataset, BenchTrainOptions());
  ColdWarmAucs aucs;
  aucs.complete = core::EvaluateAtnnAuc(model, dataset, dataset.test_indices,
                                        core::CtrPath::kEncoder);
  aucs.cold = core::EvaluateAtnnAuc(model, dataset, dataset.test_indices,
                                    core::CtrPath::kGenerator);
  return aucs;
}

std::string Degradation(const ColdWarmAucs& aucs) {
  return TablePrinter::Num((aucs.cold - aucs.complete) / aucs.complete * 100.0,
                           2) +
         "%";
}

void Run() {
  Stopwatch timer;
  data::TmallDataset dataset =
      data::GenerateTmallDataset(PaperScaleTmallConfig());
  core::NormalizeTmallInPlace(&dataset);
  std::printf("[table1] dataset: %lld users, %lld catalog items, %lld new "
              "arrivals, %zu interactions (%.1fs)\n",
              static_cast<long long>(dataset.config.num_users),
              static_cast<long long>(dataset.config.num_items),
              static_cast<long long>(dataset.config.num_new_items),
              dataset.labels.size(), timer.ElapsedSeconds());

  timer.Restart();
  const ColdWarmAucs gbdt = TrainAndEvalGbdt(dataset);
  std::printf("[table1] GBDT trained (%.1fs)\n", timer.ElapsedSeconds());

  timer.Restart();
  const ColdWarmAucs fc =
      TrainAndEvalTwoTower(dataset, nn::TowerKind::kFullyConnected);
  std::printf("[table1] TNN-FC trained (%.1fs)\n", timer.ElapsedSeconds());

  timer.Restart();
  const ColdWarmAucs dcn =
      TrainAndEvalTwoTower(dataset, nn::TowerKind::kDeepCross);
  std::printf("[table1] TNN-DCN trained (%.1fs)\n", timer.ElapsedSeconds());

  timer.Restart();
  const ColdWarmAucs atnn = TrainAndEvalAtnn(dataset);
  std::printf("[table1] ATNN trained (%.1fs)\n", timer.ElapsedSeconds());

  TablePrinter table(
      "Table I — Offline item generation ability "
      "(paper: GBDT .6149/.6590/-6.69%, TNN-FC .5934/.6048/-1.88%, "
      "TNN-DCN .6860/.7169/-4.31%, ATNN .7121/.7124/-0.04%)");
  table.SetHeader({"Model", "AUC profile-only (cold start)",
                   "AUC complete features", "Degradation"});
  table.AddRow({"GBDT", TablePrinter::Num(gbdt.cold),
                TablePrinter::Num(gbdt.complete), Degradation(gbdt)});
  table.AddRow({"TNN-FC", TablePrinter::Num(fc.cold),
                TablePrinter::Num(fc.complete), Degradation(fc)});
  table.AddRow({"TNN-DCN", TablePrinter::Num(dcn.cold),
                TablePrinter::Num(dcn.complete), Degradation(dcn)});
  table.AddRow({"ATNN", TablePrinter::Num(atnn.cold),
                TablePrinter::Num(atnn.complete), Degradation(atnn)});
  table.Print();
}

}  // namespace
}  // namespace atnn::bench

int main() {
  atnn::bench::Run();
  return 0;
}
