#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "cluster/sharded_runtime.h"
#include "core/atnn.h"
#include "core/generator_plan.h"
#include "core/popularity.h"
#include "data/schema.h"
#include "data/tmall.h"
#include "nn/ir/plan.h"
#include "quant/quantized_generator.h"
#include "runtime/inference_runtime.h"

namespace atnn::runtime {
namespace {

/// Compiled serving through the InferenceRuntime: the executor Publish
/// picks, bitwise parity with the tape, rejection of snapshots that cannot
/// serve, and the plan observability counters.
class CompiledServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(
        core::testing_helpers::MakeNormalizedTinyDataset());
    model_ = MakeModel(nn::TowerKind::kDeepCross).release();
    predictor_ = new core::PopularityPredictor(MakePredictor(*model_));
    const data::BlockBatch calibration =
        data::GatherBlock(dataset_->item_profiles, dataset_->new_items);
    for (const quant::Precision precision :
         {quant::Precision::kInt8, quant::Precision::kBf16}) {
      auto built =
          quant::QuantizedGenerator::Build(*model_, calibration, precision);
      ATNN_CHECK(built.ok()) << built.status().ToString();
      (precision == quant::Precision::kInt8 ? int8_ : bf16_) =
          new quant::QuantizedGenerator(std::move(built).value());
    }
  }

  static void TearDownTestSuite() {
    delete bf16_;
    bf16_ = nullptr;
    delete int8_;
    int8_ = nullptr;
    delete predictor_;
    predictor_ = nullptr;
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
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

  /// The shared model's snapshot; an int8 or bf16 one also carries that
  /// precision's artifact, which its plan is lowered from.
  static ServingSnapshot MakeSnapshot(
      quant::Precision precision = quant::Precision::kFp32) {
    ServingSnapshot snapshot;
    snapshot.model = Unowned(model_);
    snapshot.predictor = Unowned(predictor_);
    snapshot.item_profiles = Unowned(&dataset_->item_profiles);
    if (precision != quant::Precision::kFp32) {
      snapshot.quantized =
          Unowned(precision == quant::Precision::kInt8 ? int8_ : bf16_);
    }
    snapshot.tag = "compiled-serving-test";
    return snapshot;
  }

  static RuntimeConfig Config() {
    RuntimeConfig config;
    config.num_workers = 2;
    config.enable_score_cache = false;  // every request runs the forward
    return config;
  }

  /// Scores every new item synchronously (deterministic single-row misses)
  /// and requires each answer to come fresh from the forward.
  static std::vector<double> ScoreAll(InferenceRuntime* runtime) {
    std::vector<double> scores;
    scores.reserve(dataset_->new_items.size());
    for (const int64_t item : dataset_->new_items) {
      const auto result = runtime->Score(item);
      ATNN_CHECK(result.ok()) << result.status().ToString();
      ATNN_CHECK(result.value().tier == ServingTier::kFresh) << item;
      scores.push_back(result.value().score);
    }
    return scores;
  }

  /// An item table the published generator cannot serve, and the Status
  /// code Publish must refuse it with.
  struct UnservableTable {
    std::string what;
    std::shared_ptr<const data::EntityTable> table;
    StatusCode code;
  };

  /// Copies `items` under `features` (the original specs, edited or with
  /// numeric features appended; appended columns stay zero).
  static data::EntityTable CopyUnderSchema(
      const data::EntityTable& items, std::vector<data::FeatureSpec> features) {
    data::EntityTable copy(
        std::make_shared<const data::FeatureSchema>(std::move(features)),
        items.num_rows());
    for (int64_t row = 0; row < items.num_rows(); ++row) {
      for (size_t f = 0; f < items.schema().num_categorical(); ++f) {
        copy.set_categorical(f, row, items.categorical(f, row));
      }
      for (size_t f = 0; f < items.schema().num_numeric(); ++f) {
        copy.set_numeric(f, row, items.numeric(f, row));
      }
    }
    return copy;
  }

  static std::vector<UnservableTable> UnservableTables() {
    const data::EntityTable& items = dataset_->item_profiles;
    std::vector<data::FeatureSpec> wider_dense = items.schema().features();
    wider_dense.push_back(data::FeatureSpec::Numeric("extra"));
    std::vector<data::FeatureSpec> extra_field = items.schema().features();
    extra_field.push_back(data::FeatureSpec::Categorical("extra", 3, 2));

    // One brand id past the generator's embedding table, on a served row.
    std::vector<data::FeatureSpec> wider_vocab = items.schema().features();
    for (data::FeatureSpec& spec : wider_vocab) {
      if (spec.name == "brand") ++spec.vocab_size;
    }
    data::EntityTable out_of_vocab = CopyUnderSchema(items, wider_vocab);
    for (size_t f = 0; f < out_of_vocab.schema().num_categorical(); ++f) {
      const data::FeatureSpec& spec = out_of_vocab.schema().categorical_spec(f);
      if (spec.name == "brand") {
        out_of_vocab.set_categorical(f, dataset_->new_items.front(),
                                     spec.vocab_size - 1);
      }
    }

    std::vector<UnservableTable> tables;
    tables.push_back({"one more numeric column",
                      std::make_shared<const data::EntityTable>(
                          CopyUnderSchema(items, wider_dense)),
                      StatusCode::kInvalidArgument});
    tables.push_back({"one more categorical field",
                      std::make_shared<const data::EntityTable>(
                          CopyUnderSchema(items, extra_field)),
                      StatusCode::kInvalidArgument});
    tables.push_back({"brand vocab wider than the embedding table",
                      std::make_shared<const data::EntityTable>(
                          std::move(out_of_vocab)),
                      StatusCode::kInvalidArgument});
    // Passes validation; the plan build refuses a table with no rows.
    tables.push_back({"empty item table",
                      std::make_shared<const data::EntityTable>(
                          items.schema_ptr(), 0),
                      StatusCode::kFailedPrecondition});
    return tables;
  }

  static constexpr quant::Precision kPrecisions[] = {
      quant::Precision::kFp32, quant::Precision::kInt8,
      quant::Precision::kBf16};

  static data::TmallDataset* dataset_;
  static core::AtnnModel* model_;
  static core::PopularityPredictor* predictor_;
  static quant::QuantizedGenerator* int8_;
  static quant::QuantizedGenerator* bf16_;
};

data::TmallDataset* CompiledServingTest::dataset_ = nullptr;
core::AtnnModel* CompiledServingTest::model_ = nullptr;
core::PopularityPredictor* CompiledServingTest::predictor_ = nullptr;
quant::QuantizedGenerator* CompiledServingTest::int8_ = nullptr;
quant::QuantizedGenerator* CompiledServingTest::bf16_ = nullptr;

class CompiledServingTowerTest
    : public CompiledServingTest,
      public ::testing::WithParamInterface<nn::TowerKind> {};

TEST_P(CompiledServingTowerTest, FreshAnswersMatchTheTapeBitwise) {
  const std::unique_ptr<core::AtnnModel> model = MakeModel(GetParam());
  const core::PopularityPredictor predictor = MakePredictor(*model);
  ServingSnapshot snapshot = MakeSnapshot();
  snapshot.model = Unowned(model.get());
  snapshot.predictor = Unowned(&predictor);

  InferenceRuntime runtime(Config());
  ASSERT_TRUE(runtime.Publish(std::move(snapshot)).ok());
  const std::vector<double> served = ScoreAll(&runtime);
  const std::vector<double> tape =
      predictor.ScoreItems(*model, *dataset_, dataset_->new_items);
  ASSERT_EQ(served.size(), tape.size());
  for (size_t i = 0; i < served.size(); ++i) {
    // Bitwise — the compiled program must be indistinguishable from the
    // tape reference in every serving response.
    EXPECT_EQ(served[i], tape[i]) << i;
  }

  runtime.Shutdown();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.plan_compiled, 1);
  EXPECT_GT(stats.plan_executions, 0);
  EXPECT_EQ(stats.plan_exec_fallback, 0);
  EXPECT_GT(stats.plan_reserved_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    TowerKinds, CompiledServingTowerTest,
    ::testing::Values(nn::TowerKind::kFullyConnected,
                      nn::TowerKind::kDeepCross),
    [](const ::testing::TestParamInfo<nn::TowerKind>& info) {
      return std::string(core::testing_helpers::TowerKindName(info.param));
    });

TEST_F(CompiledServingTest, QuantizedSnapshotPublishesItsLoweredPlan) {
  const data::BlockBatch calibration =
      data::GatherBlock(dataset_->item_profiles, dataset_->new_items);
  auto quantized = quant::QuantizedGenerator::Build(
      *model_, calibration, quant::Precision::kInt8);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  const auto lowered =
      quant::CompileQuantizedPlan(*quantized, dataset_->item_profiles, 64);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  const auto expected = core::ScoreItemsWithPlan(
      **lowered, *predictor_, dataset_->item_profiles, dataset_->new_items);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Carrying the fp32 model too does not matter: the artifact is what
  // publish lowers and the plan serves.
  ServingSnapshot snapshot = MakeSnapshot();
  snapshot.quantized = Unowned(&*quantized);
  ServingSnapshot attached = snapshot;
  ASSERT_TRUE(AttachServingPlan(64, &attached).ok());
  EXPECT_NE(attached.plan->graph().ToText().find("dense_affine_s8("),
            std::string::npos);

  InferenceRuntime runtime(Config());
  ASSERT_TRUE(runtime.Publish(std::move(snapshot)).ok());
  EXPECT_EQ(ScoreAll(&runtime), *expected);
  runtime.Shutdown();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.plan_compiled, 1);
  EXPECT_EQ(stats.plan_executions,
            static_cast<int64_t>(dataset_->new_items.size()));
  EXPECT_EQ(stats.plan_exec_fallback, 0);
  EXPECT_EQ(stats.plan_reserved_bytes,
            static_cast<int64_t>((*lowered)->plan_bytes()));
}

// Every precision's plan build checks the item table: a quantized snapshot
// over a table its artifact cannot read used to publish, and then degraded
// or silently scored the wrong fields.
TEST_F(CompiledServingTest, PublishRejectsASnapshotThatCannotServe) {
  for (const quant::Precision precision : kPrecisions) {
    for (const UnservableTable& bad : UnservableTables()) {
      SCOPED_TRACE(std::string(quant::PrecisionName(precision)) + ": " +
                   bad.what);
      InferenceRuntime runtime(Config());
      ASSERT_TRUE(runtime.Publish(MakeSnapshot(precision)).ok());

      ServingSnapshot snapshot = MakeSnapshot(precision);
      snapshot.item_profiles = bad.table;
      EXPECT_EQ(runtime.Publish(std::move(snapshot)).status().code(),
                bad.code);
      EXPECT_EQ(runtime.stats().publish_rejected, 1);
      EXPECT_EQ(runtime.snapshot_version(), 1u);
      const auto answer = runtime.Score(dataset_->new_items.front());
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->tier, ServingTier::kFresh);
      EXPECT_EQ(answer->snapshot_version, 1u);
    }
  }
}

TEST_F(CompiledServingTest, PublishShardedRejectsASnapshotThatCannotServe) {
  for (const quant::Precision precision : kPrecisions) {
    for (const UnservableTable& bad : UnservableTables()) {
      SCOPED_TRACE(std::string(quant::PrecisionName(precision)) + ": " +
                   bad.what);
      cluster::ShardedRuntimeConfig config;
      config.num_shards = 2;
      config.shard = Config();
      cluster::ShardedRuntime sharded(config);
      ASSERT_TRUE(sharded.PublishSharded(MakeSnapshot(precision)).ok());

      ServingSnapshot snapshot = MakeSnapshot(precision);
      snapshot.item_profiles = bad.table;
      EXPECT_EQ(sharded.PublishSharded(snapshot).status().code(), bad.code);
      int64_t rejected = -1;
      for (const auto& [name, value] : sharded.Collect().counters) {
        if (name == "gather.publish_rejected") rejected = value;
      }
      EXPECT_EQ(rejected, 1);
      // Refused before any shard swapped.
      for (size_t i = 0; i < sharded.num_shards(); ++i) {
        EXPECT_EQ(sharded.shard(i).snapshot_version(), 1u) << i;
      }
      const auto answer = sharded.Score(dataset_->new_items.front());
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->tier, ServingTier::kFresh);
      EXPECT_EQ(answer->snapshot_version, 1u);
    }
  }
}

// The plan serves identity, relu and sigmoid layers only (the epilogues
// its dense steps fuse), for every precision: a tanh or leaky_relu
// generator does not compile, and publishing it keeps the old version.
TEST_F(CompiledServingTest, GeneratorsWithOtherActivationsAreRejected) {
  for (const nn::Activation act :
       {nn::Activation::kTanh, nn::Activation::kLeakyRelu}) {
    SCOPED_TRACE(static_cast<int>(act));
    core::AtnnConfig config;
    config.tower =
        core::testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.tower.hidden_activation = act;
    config.seed = 11;
    const core::AtnnModel model(*dataset_->user_schema,
                                *dataset_->item_profile_schema,
                                *dataset_->item_stats_schema, config);
    EXPECT_EQ(core::CompileGeneratorPlan(model, dataset_->item_profiles, 64)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    InferenceRuntime runtime(Config());
    ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
    const core::PopularityPredictor predictor = MakePredictor(model);
    ServingSnapshot snapshot = MakeSnapshot();
    snapshot.model = Unowned(&model);
    snapshot.predictor = Unowned(&predictor);
    EXPECT_EQ(runtime.Publish(std::move(snapshot)).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(runtime.stats().publish_rejected, 1);
    EXPECT_EQ(runtime.snapshot_version(), 1u);
    const auto answer = runtime.Score(dataset_->new_items.front());
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->tier, ServingTier::kFresh);
    EXPECT_EQ(answer->snapshot_version, 1u);
  }
}

TEST_F(CompiledServingTest, AttachedPlanBelowTheBatchCeilingIsRejected) {
  InferenceRuntime runtime(Config());  // max_batch_size 64
  ServingSnapshot snapshot = MakeSnapshot();
  auto small = core::CompileGeneratorPlan(*model_, dataset_->item_profiles,
                                          /*max_batch=*/4);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  snapshot.plan = *small;
  EXPECT_EQ(runtime.Publish(std::move(snapshot)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(runtime.stats().publish_rejected, 1);
  EXPECT_EQ(runtime.snapshot_version(), 0u);
}

TEST_F(CompiledServingTest, FailedPlanExecutionDegradesTheMisses) {
  // An attached plan built from a generator one dense column narrower
  // than the published table: every Execute refuses the block.
  const data::FeatureSchema& schema = dataset_->item_profiles.schema();
  std::vector<data::FeatureSpec> narrow = schema.features();
  narrow.erase(narrow.begin() +
               static_cast<std::ptrdiff_t>(schema.numeric_indices().back()));
  const auto narrow_schema =
      std::make_shared<const data::FeatureSchema>(std::move(narrow));
  core::AtnnConfig config;
  config.tower =
      core::testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
  const core::AtnnModel narrow_model(*dataset_->user_schema, *narrow_schema,
                                     *dataset_->item_stats_schema, config);
  auto plan = core::CompileGeneratorPlan(
      narrow_model, data::EntityTable(narrow_schema, 1), /*max_batch=*/64);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  for (const bool fallback : {true, false}) {
    SCOPED_TRACE(fallback ? "fallback chain" : "no fallback chain");
    RuntimeConfig runtime_config = Config();
    runtime_config.enable_degraded_fallback = fallback;
    InferenceRuntime runtime(runtime_config);
    ServingSnapshot snapshot = MakeSnapshot();
    snapshot.plan = *plan;
    ASSERT_TRUE(runtime.Publish(std::move(snapshot)).ok());
    const auto answer = runtime.Score(dataset_->new_items.front());
    if (fallback) {
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->tier, ServingTier::kGlobalMean);
    } else {
      // Without the chain the executor's own Status surfaces.
      EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
    }
    runtime.Shutdown();
    const auto stats = runtime.stats();
    EXPECT_EQ(stats.plan_executions, 0);
    EXPECT_EQ(stats.plan_exec_fallback, 1);
  }
}

TEST_F(CompiledServingTest, PlanCountersRenderInTheStatsTable) {
  InferenceRuntime runtime(Config());
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
  ASSERT_TRUE(runtime.Score(dataset_->new_items.front()).ok());
  runtime.Shutdown();
  const std::string table = RuntimeStats::ToTable(runtime.stats());
  for (const char* row :
       {"plan_compiled", "plan_executions", "plan_reserved_bytes"}) {
    EXPECT_NE(table.find(row), std::string::npos) << row;
  }
}

TEST_F(CompiledServingTest, RepublishingRecompilesPerSnapshot) {
  InferenceRuntime runtime(Config());
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
  ASSERT_TRUE(runtime.Publish(MakeSnapshot()).ok());
  const std::vector<double> scores = ScoreAll(&runtime);
  EXPECT_EQ(scores.size(), dataset_->new_items.size());
  runtime.Shutdown();
  // Each published snapshot carries its own plan (weights may differ
  // between versions), and no plan execution ever failed.
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.plan_compiled, 2);
  EXPECT_EQ(stats.plan_exec_fallback, 0);
}

}  // namespace
}  // namespace atnn::runtime
