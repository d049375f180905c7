// Beyond-the-paper comparison: the related-work CTR models the paper cites
// (Section II-B) on the same synthetic Tmall dataset and the same
// cold-start protocol as Table I — LR/FTRL, FM, Wide & Deep, DeepFM next
// to GBDT, TNN-DCN and ATNN. Shows where the two-tower + adversarial
// design sits in the model landscape it grew out of.

#include <cstdio>

#include "baselines/baseline_trainer.h"
#include "baselines/concat_dnn.h"
#include "baselines/deepfm.h"
#include "baselines/factorization_machine.h"
#include "baselines/ftrl_lr.h"
#include "baselines/lsplm.h"
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

/// Sparse test views: complete and statistics-masked.
struct SparseViews {
  baselines::SparseDatasetView train;
  baselines::SparseDatasetView test_complete;
  baselines::SparseDatasetView test_cold;
};

SparseViews MakeSparseViews(const data::TmallDataset& dataset,
                            const baselines::SparseCtrEncoder& encoder) {
  SparseViews views;
  views.train =
      baselines::EncodeInteractions(dataset, dataset.train_indices, encoder);
  views.test_complete =
      baselines::EncodeInteractions(dataset, dataset.test_indices, encoder);
  // Cold: gather, mask stats, then encode.
  for (const auto chunk : core::MakeBatchSpans(dataset.test_indices, 4096)) {
    data::CtrBatch batch = MakeCtrBatch(dataset, chunk);
    core::MaskStatsAsMissing(&batch.item_stats);
    auto encoded = encoder.Encode(batch);
    for (auto& row : encoded) {
      views.test_cold.rows.push_back(std::move(row));
    }
    for (int64_t r = 0; r < batch.labels.rows(); ++r) {
      views.test_cold.labels.push_back(batch.labels.at(r, 0));
    }
  }
  return views;
}

template <typename Model>
Row EvalSparse(const std::string& name, Model* model,
               const SparseViews& views, int passes) {
  Stopwatch timer;
  for (int pass = 0; pass < passes; ++pass) {
    model->TrainPass(views.train.rows, views.train.labels);
  }
  Row row;
  row.name = name;
  row.complete = metrics::Auc(
      model->PredictProbability(views.test_complete.rows),
      views.test_complete.labels);
  row.cold = metrics::Auc(model->PredictProbability(views.test_cold.rows),
                          views.test_cold.labels);
  row.seconds = timer.ElapsedSeconds();
  std::printf("[baselines] %-12s done (%.1fs)\n", name.c_str(), row.seconds);
  return row;
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

  // --- sparse linear-era models ---
  const baselines::SparseCtrEncoder encoder(*dataset.user_schema,
                                            *dataset.item_profile_schema,
                                            *dataset.item_stats_schema,
                                            /*use_stats=*/true);
  const SparseViews views = MakeSparseViews(dataset, encoder);
  {
    baselines::FtrlConfig config;
    config.lambda1 = 0.05;
    baselines::FtrlLogisticRegression lr(encoder.dimension(), config);
    rows.push_back(EvalSparse("LR (FTRL)", &lr, views, 2));
  }
  {
    baselines::LsplmConfig config;
    config.num_pieces = 8;
    baselines::LsplmModel lsplm(encoder.dimension(), config);
    rows.push_back(EvalSparse("LS-PLM", &lsplm, views, 2));
  }
  {
    baselines::FmConfig config;
    config.latent_dim = 8;
    baselines::FactorizationMachine fm(encoder.dimension(), config);
    rows.push_back(EvalSparse("FM", &fm, views, 2));
  }

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
