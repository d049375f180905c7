#include "quant/quantized_generator.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "core/atnn.h"
#include "core/popularity.h"
#include "data/schema.h"
#include "data/tmall.h"
#include "nn/autograd.h"
#include "nn/ir/plan.h"
#include "runtime/snapshot_handle.h"

namespace atnn::quant {
namespace {

using core::testing_helpers::MakeNormalizedTinyDataset;
using core::testing_helpers::TinyTowerConfig;

class QuantizedGeneratorTest : public testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeNormalizedTinyDataset();
    core::AtnnConfig config;
    config.tower = TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = 11;
    model_ = std::make_unique<core::AtnnModel>(
        *dataset_.user_schema, *dataset_.item_profile_schema,
        *dataset_.item_stats_schema, config);
    calibration_ =
        data::GatherBlock(dataset_.item_profiles, dataset_.new_items);
  }

  nn::Tensor Fp32Vectors(const data::BlockBatch& block) const {
    const nn::NoGradGuard no_grad;
    return model_->GeneratorItemVector(block).value();
  }

  /// g(X_ip) of `block` through `artifact` lowered into a plan.
  nn::Tensor LoweredVectors(const QuantizedGenerator& artifact,
                            const data::BlockBatch& block) const {
    const auto plan =
        CompileQuantizedPlan(artifact, dataset_.item_profiles, block.rows());
    ATNN_CHECK(plan.ok()) << plan.status().ToString();
    nn::ir::PlanScratch scratch;
    const auto out = (*plan)->Execute({&block.categorical, &block.numeric},
                                      block.rows(), &scratch);
    ATNN_CHECK(out.ok()) << out.status().ToString();
    nn::Tensor vectors(block.rows(), (*plan)->output_cols());
    std::memcpy(vectors.data(), *out,
                static_cast<size_t>(vectors.numel()) * sizeof(float));
    return vectors;
  }

  data::TmallDataset dataset_;
  std::unique_ptr<core::AtnnModel> model_;
  data::BlockBatch calibration_;
};

TEST(PrecisionTest, ParseAndNameRoundTrip) {
  for (const Precision p :
       {Precision::kFp32, Precision::kBf16, Precision::kInt8}) {
    const auto parsed = ParsePrecision(PrecisionName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  for (const char* bad : {"fp16", "int4", "", "FP32", "quantized"}) {
    EXPECT_EQ(ParsePrecision(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST_F(QuantizedGeneratorTest, Fp32IsNotAQuantizedPrecision) {
  EXPECT_EQ(QuantizedGenerator::Build(*model_, calibration_,
                                      Precision::kFp32)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The calibration forward is the model's tape, whose embedding gather
// aborts on an id it cannot read: a batch it cannot read must come back as
// a Status before the tape runs.
TEST_F(QuantizedGeneratorTest, Int8NeedsCalibrationRows) {
  const auto build = [&](const data::BlockBatch& batch) {
    return QuantizedGenerator::Build(*model_, batch, Precision::kInt8)
        .status()
        .code();
  };
  EXPECT_EQ(build(data::GatherBlock(dataset_.item_profiles, {})),
            StatusCode::kInvalidArgument);

  data::BlockBatch negative = calibration_;
  negative.categorical[0][1] = -3;
  EXPECT_EQ(build(negative), StatusCode::kInvalidArgument);

  data::BlockBatch past_table = calibration_;
  const size_t last = past_table.categorical.size() - 1;
  past_table.categorical[last][0] =
      model_->generator_embedding_bag().table(last).value().rows();
  EXPECT_EQ(build(past_table), StatusCode::kOutOfRange);

  data::BlockBatch missing_field = calibration_;
  missing_field.categorical.pop_back();
  EXPECT_EQ(build(missing_field), StatusCode::kInvalidArgument);

  data::BlockBatch narrow = calibration_;
  narrow.numeric =
      nn::Tensor(calibration_.rows(), calibration_.numeric.cols() - 1);
  EXPECT_EQ(build(narrow), StatusCode::kInvalidArgument);

  // bf16 needs no calibration, so it never reads the batch.
  EXPECT_TRUE(
      QuantizedGenerator::Build(*model_, negative, Precision::kBf16).ok());
}

TEST_F(QuantizedGeneratorTest, LoweringEmitsOneStepPerLayer) {
  for (const Precision precision : {Precision::kInt8, Precision::kBf16}) {
    SCOPED_TRACE(PrecisionName(precision));
    auto quantized =
        QuantizedGenerator::Build(*model_, calibration_, precision);
    ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
    const auto plan = CompileQuantizedPlan(*quantized, dataset_.item_profiles,
                                           /*max_batch=*/8);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const std::string dense = precision == Precision::kInt8
                                  ? "dense_affine_s8("
                                  : "dense_affine_bf16(";
    const std::string table = precision == Precision::kInt8
                                  ? "embed_lookup(s8["
                                  : "embed_lookup(bf16[";
    const std::string text = (*plan)->graph().ToText();
    const auto count = [&text](const std::string& what) {
      size_t n = 0;
      for (size_t at = text.find(what); at != std::string::npos;
           at = text.find(what, at + 1)) {
        ++n;
      }
      return n;
    };
    const size_t fields = dataset_.item_profile_schema->num_categorical();
    EXPECT_EQ(count(table), fields) << text;
    EXPECT_EQ(count(dense), 3u) << text;  // two deep layers and the head
    EXPECT_EQ(count("cross_layer("), 2u) << text;
    EXPECT_EQ(count("concat_cols("), 2u) << text;
    // The second cross layer runs in place.
    EXPECT_EQ(count(" inplace"), 1u) << text;
    // The lookups, concat, two deep layers, two cross layers, concat, head.
    EXPECT_EQ((*plan)->num_steps(), fields + 7);
  }
}

// The int8 lowering of the tiny DCN tower, pinned: graph text, step count
// and scratch layout at max_batch 64.
TEST_F(QuantizedGeneratorTest, Int8LoweringMatchesItsGoldenPlan) {
  auto quantized =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kInt8);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  const auto plan =
      CompileQuantizedPlan(*quantized, dataset_.item_profiles, 64);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->graph().ToText(),
      "graph: nodes=22 fields=7 dense_cols=31\n"
      "%0 = embed_lookup(s8[40x6], field=0, hash=0) : [Bx6]\n"
      "%1 = embed_lookup(s8[160x16], field=1, hash=0) : [Bx16]\n"
      "%2 = embed_lookup(s8[240x16], field=2, hash=0) : [Bx16]\n"
      "%3 = embed_lookup(s8[400x16], field=3, hash=0) : [Bx16]\n"
      "%4 = embed_lookup(s8[10x4], field=4, hash=0) : [Bx4]\n"
      "%5 = embed_lookup(s8[4x2], field=5, hash=0) : [Bx2]\n"
      "%6 = embed_lookup(s8[20x4], field=6, hash=0) : [Bx4]\n"
      "%7 = dense_input : [Bx31]\n"
      "%8 = concat_cols(%0, %1, %2, %3, %4, %5, %6, %7) : [Bx95]\n"
      "%9 = const \"param\" : [1x32]\n"
      "%10 = dense_affine_s8(%8, %9, act=relu) : [Bx32]\n"
      "%11 = const \"param\" : [1x16]\n"
      "%12 = dense_affine_s8(%10, %11, act=relu) : [Bx16]\n"
      "%13 = const \"param\" : [95x1]\n"
      "%14 = const \"param\" : [1x95]\n"
      "%15 = cross_layer(%8, %8, %13, %14) : [Bx95]\n"
      "%16 = const \"param\" : [95x1]\n"
      "%17 = const \"param\" : [1x95]\n"
      "%18 = cross_layer(%15, %8, %16, %17) : [Bx95] inplace\n"
      "%19 = concat_cols(%18, %12) : [Bx111]\n"
      "%20 = const \"param\" : [1x12]\n"
      "%21 = dense_affine_s8(%19, %20, act=identity) : [Bx12]\n"
      "output %21\n");
  EXPECT_EQ((*plan)->num_steps(), 14u);
  EXPECT_EQ((*plan)->plan_bytes(), 108800u);
}

TEST_F(QuantizedGeneratorTest, Int8TracksFp32Vectors) {
  auto quantized =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kInt8);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  EXPECT_EQ(quantized->precision(), Precision::kInt8);
  EXPECT_EQ(quantized->vector_dim(), model_->vector_dim());

  const nn::Tensor got = LoweredVectors(*quantized, calibration_);
  const nn::Tensor want = Fp32Vectors(calibration_);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  // Static 7-bit activations + 8-bit weights on an *untrained* random-init
  // model (the worst case for static calibration): individual rows can see
  // tens-of-percent error, but the cohort-level error must stay bounded
  // and no row may be garbage. End-to-end quality on a trained model is
  // gated much tighter by bench_quantized (AUC delta < 0.001).
  double err = 0.0;
  double norm = 0.0;
  for (int64_t r = 0; r < got.rows(); ++r) {
    double row_err = 0.0;
    double row_norm = 0.0;
    for (int64_t c = 0; c < got.cols(); ++c) {
      const double d = got.at(r, c) - want.at(r, c);
      row_err += d * d;
      row_norm += static_cast<double>(want.at(r, c)) * want.at(r, c);
    }
    EXPECT_LT(std::sqrt(row_err), 0.5 * std::sqrt(row_norm) + 0.01)
        << "row " << r;
    err += row_err;
    norm += row_norm;
  }
  EXPECT_LT(std::sqrt(err), 0.2 * std::sqrt(norm));
}

TEST_F(QuantizedGeneratorTest, Bf16TracksFp32Tightly) {
  auto quantized =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kBf16);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  const nn::Tensor got = LoweredVectors(*quantized, calibration_);
  const nn::Tensor want = Fp32Vectors(calibration_);
  for (int64_t r = 0; r < got.rows(); ++r) {
    for (int64_t c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got.at(r, c), want.at(r, c),
                  0.02 * std::abs(want.at(r, c)) + 0.02)
          << r << "," << c;
    }
  }
}

TEST_F(QuantizedGeneratorTest, CompressionRatioHolds) {
  auto int8 =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kInt8);
  ASSERT_TRUE(int8.ok());
  EXPECT_LE(static_cast<double>(int8->QuantizedByteSize()),
            0.35 * static_cast<double>(int8->Fp32ByteSize()));
  auto bf16 =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kBf16);
  ASSERT_TRUE(bf16.ok());
  EXPECT_LE(static_cast<double>(bf16->QuantizedByteSize()),
            0.55 * static_cast<double>(bf16->Fp32ByteSize()));
}

// --- calibration edge cases ---

TEST_F(QuantizedGeneratorTest, AllZeroEmbeddingRowsQuantizeSafely) {
  // Zero out an entire embedding table through the optimizer's mutable
  // parameter list (the const accessors are for inference). A zero row's
  // absmax is 0; the per-row scale must fall back to 1.0, not become a
  // 0/NaN that Validate would reject or the forward would divide by.
  const nn::Parameter* table = &model_->generator_embedding_bag().table(0);
  bool zeroed = false;
  for (nn::Parameter* param : model_->GeneratorParameters()) {
    if (param == table) {
      param->value().Fill(0.0f);
      zeroed = true;
    }
  }
  ASSERT_TRUE(zeroed) << "first embedding table not in generator params";

  auto quantized =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kInt8);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  EXPECT_TRUE(quantized->Validate().ok());
  const nn::Tensor out = LoweredVectors(*quantized, calibration_);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i])) << i;
  }
}

TEST_F(QuantizedGeneratorTest, SingleItemCohortCalibrates) {
  const data::BlockBatch one = data::GatherBlock(
      dataset_.item_profiles, {dataset_.new_items.front()});
  auto quantized =
      QuantizedGenerator::Build(*model_, one, Precision::kInt8);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  EXPECT_TRUE(quantized->Validate().ok());
  // Activation scales calibrated on one item must still keep the whole
  // cohort finite (clipping, not poisoning, is the failure mode allowed).
  const nn::Tensor out = LoweredVectors(*quantized, calibration_);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i])) << i;
  }
}

TEST_F(QuantizedGeneratorTest, ConstantNumericColumnsCalibrate) {
  // A constant (including all-zero) numeric block: per-layer activation
  // absmax can hit zero, which must fall back to a usable scale.
  data::BlockBatch constant = calibration_;
  constant.numeric.Fill(0.0f);
  auto quantized =
      QuantizedGenerator::Build(*model_, constant, Precision::kInt8);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
  EXPECT_TRUE(quantized->Validate().ok());
  const nn::Tensor out = LoweredVectors(*quantized, calibration_);
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i])) << i;
  }
}

// --- persistence ---

TEST_F(QuantizedGeneratorTest, SaveLoadRoundTripIsBitwise) {
  auto quantized =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kInt8);
  ASSERT_TRUE(quantized.ok());
  const std::string path = testing::TempDir() + "/quantized_artifact.bin";
  ASSERT_TRUE(quantized->Save(path, "test-tag").ok());

  auto loaded = QuantizedGenerator::Load(path, "test-tag");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->precision(), Precision::kInt8);

  const nn::Tensor before = LoweredVectors(*quantized, calibration_);
  const nn::Tensor after = LoweredVectors(*loaded, calibration_);
  ASSERT_EQ(before.rows(), after.rows());
  ASSERT_EQ(before.cols(), after.cols());
  EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                           static_cast<size_t>(before.numel()) *
                               sizeof(float)));
  std::remove(path.c_str());
}

TEST_F(QuantizedGeneratorTest, LoadRejectsWrongTag) {
  auto quantized =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kBf16);
  ASSERT_TRUE(quantized.ok());
  const std::string path = testing::TempDir() + "/quantized_tagged.bin";
  ASSERT_TRUE(quantized->Save(path, "arch-v1").ok());
  EXPECT_EQ(QuantizedGenerator::Load(path, "arch-v2").status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --- validation / serving integration ---

TEST_F(QuantizedGeneratorTest, PoisonedScaleFailsValidate) {
  auto quantized =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kInt8);
  ASSERT_TRUE(quantized.ok());
  ASSERT_TRUE(quantized->Validate().ok());
  quantized->CorruptScaleForTest(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(quantized->Validate().code(), StatusCode::kDataLoss);
  quantized->CorruptScaleForTest(0.0f);
  EXPECT_EQ(quantized->Validate().code(), StatusCode::kDataLoss);
  // The lowering validates first, so a corrupt artifact never lowers.
  EXPECT_EQ(CompileQuantizedPlan(*quantized, dataset_.item_profiles, 8)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST_F(QuantizedGeneratorTest, SnapshotValidatesWithoutFp32Model) {
  auto built =
      QuantizedGenerator::Build(*model_, calibration_, Precision::kInt8);
  ASSERT_TRUE(built.ok());
  const auto group = core::SelectActiveUsers(dataset_, 50);
  const auto predictor =
      core::PopularityPredictor::Build(*model_, dataset_, group);

  runtime::ServingSnapshot snapshot;
  snapshot.quantized = runtime::Unowned(&*built);
  snapshot.predictor = runtime::Unowned(&predictor);
  snapshot.item_profiles = runtime::Unowned(&dataset_.item_profiles);
  // model deliberately null: the quantized path serves without fp32
  // weights resident.
  EXPECT_TRUE(runtime::ValidateServingSnapshot(snapshot).ok());

  built->CorruptScaleForTest(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(runtime::ValidateServingSnapshot(snapshot).code(),
            StatusCode::kDataLoss);

  runtime::ServingSnapshot neither;
  neither.predictor = runtime::Unowned(&predictor);
  neither.item_profiles = runtime::Unowned(&dataset_.item_profiles);
  EXPECT_EQ(runtime::ValidateServingSnapshot(neither).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace atnn::quant
