#include "nn/ir/plan.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "core/atnn.h"
#include "core/generator_plan.h"
#include "core/popularity.h"
#include "data/schema.h"
#include "data/tmall.h"
#include "nn/kernels.h"
#include "nn/tensor.h"

namespace atnn::nn::ir {
namespace {

TEST(PlanScratchTest, GrowsOnceAndStaysAligned) {
  PlanScratch scratch;
  EXPECT_EQ(scratch.capacity(), 0u);
  std::byte* first = scratch.Ensure(100);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(first) % 32, 0u);
  EXPECT_GE(scratch.capacity(), 100u);
  // Shrinking requests reuse the same buffer.
  EXPECT_EQ(scratch.Ensure(50), first);
  EXPECT_EQ(scratch.Ensure(100), first);
  // Growing reallocates (still aligned).
  std::byte* grown = scratch.Ensure(scratch.capacity() + 1);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(grown) % 32, 0u);
  EXPECT_GE(scratch.capacity(), 101u);
}

/// Minimal executable graph: one embedding gather off a constant table,
/// by default with raw (unhashed) ids so the range check is reachable.
std::unique_ptr<CompiledPlan> MakeLookupPlan(int64_t vocab, int64_t dim,
                                             int64_t max_batch,
                                             int64_t hash_buckets = 0) {
  Graph graph;
  NodeDef table;
  table.kind = OpKind::kConstant;
  table.rows = vocab;
  table.cols = dim;
  table.owned = Tensor(vocab, dim);
  for (int64_t i = 0; i < table.owned.numel(); ++i) {
    table.owned.data()[i] = static_cast<float>(i);
  }
  table.data = table.owned.data();
  table.label = "emb";
  const int32_t table_id = graph.AddNode(std::move(table));
  NodeDef lookup;
  lookup.kind = OpKind::kEmbedLookup;
  lookup.inputs = {table_id};
  lookup.batch_rows = true;
  lookup.rows = 3;
  lookup.cols = dim;
  lookup.field = 0;
  lookup.hash_buckets = hash_buckets;
  graph.set_output(graph.AddNode(std::move(lookup)));
  graph.set_num_fields(1);
  CompiledPlan::Options options;
  options.max_batch = max_batch;
  auto plan = CompiledPlan::Compile(std::move(graph), options);
  ATNN_CHECK(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

TEST(CompiledPlanTest, ExecuteGathersRowsBitwise) {
  const auto plan = MakeLookupPlan(/*vocab=*/8, /*dim=*/4, /*max_batch=*/8);
  const std::vector<std::vector<int64_t>> ids = {{7, 0, 3}};
  PlanScratch scratch;
  const auto out = plan->Execute({&ids, nullptr}, 3, &scratch);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_EQ(out.value()[r * 4 + c],
                static_cast<float>(ids[0][static_cast<size_t>(r)] * 4 + c));
    }
  }
}

TEST(CompiledPlanTest, ExecuteRejectsOutOfRangeRawIds) {
  const auto plan = MakeLookupPlan(/*vocab=*/8, /*dim=*/4, /*max_batch=*/8);
  PlanScratch scratch;
  const std::vector<std::vector<int64_t>> high = {{0, 8, 1}};
  EXPECT_EQ(plan->Execute({&high, nullptr}, 3, &scratch).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<std::vector<int64_t>> negative = {{-1, 0, 1}};
  EXPECT_EQ(
      plan->Execute({&negative, nullptr}, 3, &scratch).status().code(),
      StatusCode::kInvalidArgument);
  // A hashed field takes any non-negative id, and only those: hashing a
  // negative id would quietly pick some bucket.
  const auto hashed = MakeLookupPlan(/*vocab=*/8, /*dim=*/4, /*max_batch=*/8,
                                     /*hash_buckets=*/8);
  const std::vector<std::vector<int64_t>> large = {{1'000'003, 8, 3}};
  EXPECT_TRUE(hashed->Execute({&large, nullptr}, 3, &scratch).ok());
  const std::vector<std::vector<int64_t>> hashed_negative = {{-1, -5, 3}};
  EXPECT_EQ(
      hashed->Execute({&hashed_negative, nullptr}, 3, &scratch).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(CompiledPlanTest, ExecuteValidatesBatchAndInputShapes) {
  const auto plan = MakeLookupPlan(/*vocab=*/8, /*dim=*/4, /*max_batch=*/4);
  PlanScratch scratch;
  const std::vector<std::vector<int64_t>> ids = {{1, 2}};

  EXPECT_EQ(plan->Execute({&ids, nullptr}, 0, &scratch).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(plan->Execute({&ids, nullptr}, 5, &scratch).status().code(),
            StatusCode::kInvalidArgument);
  // Missing id fields entirely.
  EXPECT_EQ(plan->Execute({nullptr, nullptr}, 2, &scratch).status().code(),
            StatusCode::kInvalidArgument);
  // Field size disagrees with the batch.
  EXPECT_EQ(plan->Execute({&ids, nullptr}, 1, &scratch).status().code(),
            StatusCode::kInvalidArgument);
  // The matching call still works on the same scratch.
  EXPECT_TRUE(plan->Execute({&ids, nullptr}, 2, &scratch).ok());
}

TEST(CompiledPlanTest, CompileRejectsBadOptionsAndGraphs) {
  {
    Graph graph;  // no output
    CompiledPlan::Options options;
    EXPECT_EQ(
        CompiledPlan::Compile(std::move(graph), options).status().code(),
        StatusCode::kInvalidArgument);
  }
  {
    // A non-batch output can never serve per-row scoring.
    Graph graph;
    NodeDef c;
    c.kind = OpKind::kConstant;
    c.rows = 1;
    c.cols = 4;
    c.owned = Tensor(1, 4);
    c.data = c.owned.data();
    const int32_t cid = graph.AddNode(std::move(c));
    NodeDef relu;
    relu.kind = OpKind::kRelu;
    relu.inputs = {cid};
    relu.rows = 1;
    relu.cols = 4;
    graph.set_output(graph.AddNode(std::move(relu)));
    CompiledPlan::Options options;
    const auto plan = CompiledPlan::Compile(std::move(graph), options);
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    // (The default pipeline folds relu(const) first, so the diagnostic is
    // "output is not a computed value" rather than "not batch-shaped" —
    // either way the output can never serve per-row scoring.)
    EXPECT_NE(plan.status().ToString().find("output"), std::string::npos)
        << plan.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// End-to-end against the real model: the compiled generator reproduces the
// tape scores bit for bit for every tower kind.
// ---------------------------------------------------------------------------

class GeneratorPlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(
        core::testing_helpers::MakeNormalizedTinyDataset());
    model_ = MakeModel(nn::TowerKind::kDeepCross).release();
    predictor_ = new core::PopularityPredictor(MakePredictor(*model_));
  }

  static std::unique_ptr<core::AtnnModel> MakeModel(nn::TowerKind kind) {
    core::AtnnConfig config;
    config.tower = core::testing_helpers::TinyTowerConfig(kind);
    config.seed = 11;
    return std::make_unique<core::AtnnModel>(
        *dataset_->user_schema, *dataset_->item_profile_schema,
        *dataset_->item_stats_schema, config);
  }

  static core::PopularityPredictor MakePredictor(
      const core::AtnnModel& model) {
    return core::PopularityPredictor::Build(
        model, *dataset_, core::SelectActiveUsers(*dataset_, 64));
  }

  static void TearDownTestSuite() {
    delete predictor_;
    predictor_ = nullptr;
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static data::TmallDataset* dataset_;
  static core::AtnnModel* model_;
  static core::PopularityPredictor* predictor_;
};

data::TmallDataset* GeneratorPlanTest::dataset_ = nullptr;
core::AtnnModel* GeneratorPlanTest::model_ = nullptr;
core::PopularityPredictor* GeneratorPlanTest::predictor_ = nullptr;

class GeneratorPlanTowerTest
    : public GeneratorPlanTest,
      public ::testing::WithParamInterface<nn::TowerKind> {};

TEST_P(GeneratorPlanTowerTest, CompiledScoresMatchTheTapeBitwise) {
  const std::unique_ptr<core::AtnnModel> model = MakeModel(GetParam());
  for (const kernels::Backend backend : core::testing_helpers::HostBackends()) {
    SCOPED_TRACE(kernels::BackendName(backend));
    const core::testing_helpers::ScopedBackend scoped(backend);
    const core::PopularityPredictor predictor = MakePredictor(*model);
    const std::vector<double> tape =
        predictor.ScoreItems(*model, *dataset_, dataset_->new_items);
    // max_batch below the item count forces multi-chunk execution; 1, 7 and
    // 64 also put every row group of the narrow-column GEMM on the path.
    for (const int64_t max_batch : {1, 7, 16, 64}) {
      SCOPED_TRACE(max_batch);
      const auto plan = core::CompileGeneratorPlan(
          *model, dataset_->item_profiles, max_batch);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_GT((*plan)->num_steps(), 0u);
      EXPECT_GT((*plan)->plan_bytes(), 0u);
      EXPECT_EQ((*plan)->max_batch(), max_batch);
      EXPECT_EQ((*plan)->output_cols(), model->vector_dim());
      EXPECT_FALSE((*plan)->pass_summary().empty());

      const auto planned = core::ScoreItemsWithPlan(
          **plan, predictor, dataset_->item_profiles, dataset_->new_items);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      ASSERT_EQ(planned->size(), tape.size());
      for (size_t i = 0; i < tape.size(); ++i) {
        // Bitwise, not approximately: the plan runs the same kernels in
        // the same composition as the tape forward.
        EXPECT_EQ((*planned)[i], tape[i]) << i;
      }
    }
  }
}

TEST_P(GeneratorPlanTowerTest, ServedScoresAreBitwiseEqualAcrossKernelTables) {
  if (!kernels::Avx2Supported()) GTEST_SKIP() << "host lacks AVX2+FMA";
  const std::unique_ptr<core::AtnnModel> model = MakeModel(GetParam());
  std::vector<int64_t> rows(static_cast<size_t>(
      dataset_->item_profiles.num_rows()));
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
  // Predictor, plan and scores all come from one table at a time.
  std::vector<std::vector<double>> scores;
  for (const kernels::Backend backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    const core::testing_helpers::ScopedBackend scoped(backend);
    const core::PopularityPredictor predictor = MakePredictor(*model);
    const auto plan =
        core::CompileGeneratorPlan(*model, dataset_->item_profiles, 64);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto planned = core::ScoreItemsWithPlan(**plan, predictor,
                                            dataset_->item_profiles, rows);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    scores.push_back(std::move(planned).value());
  }
  ASSERT_EQ(scores[0].size(), rows.size());
  ASSERT_EQ(scores[1].size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(std::memcmp(&scores[0][i], &scores[1][i], sizeof(double)), 0)
        << "row " << i << ": scalar " << scores[0][i] << " avx2 "
        << scores[1][i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    TowerKinds, GeneratorPlanTowerTest,
    ::testing::Values(nn::TowerKind::kFullyConnected,
                      nn::TowerKind::kDeepCross),
    [](const ::testing::TestParamInfo<nn::TowerKind>& info) {
      return std::string(core::testing_helpers::TowerKindName(info.param));
    });

TEST_F(GeneratorPlanTest, ExecuteRejectsDenseShapeDrift) {
  const auto plan =
      core::CompileGeneratorPlan(*model_, dataset_->item_profiles, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const data::BlockBatch block =
      data::GatherBlock(dataset_->item_profiles, {0, 1});
  PlanScratch scratch;
  ASSERT_TRUE(
      (*plan)->Execute({&block.categorical, &block.numeric}, 2, &scratch)
          .ok());
  // A dense block whose width drifted from the traced schema is refused —
  // the runtime answers such a batch from its degraded chain.
  const Tensor wrong_width(2, block.numeric.cols() + 1);
  EXPECT_EQ((*plan)
                ->Execute({&block.categorical, &wrong_width}, 2, &scratch)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*plan)
                ->Execute({&block.categorical, nullptr}, 2, &scratch)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GeneratorPlanTest, CompileRequiresANonEmptyItemTable) {
  const data::EntityTable empty;
  EXPECT_EQ(core::CompileGeneratorPlan(*model_, empty, 16).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(core::CompileGeneratorPlan(*model_, dataset_->item_profiles, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace atnn::nn::ir
