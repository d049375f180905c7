#include "nn/layers.h"

#include <gtest/gtest.h>

namespace atnn::nn {
namespace {

TEST(DenseTest, ShapesAndParameterNames) {
  Rng rng(1);
  Dense layer("fc", 4, 3, Activation::kRelu, &rng);
  EXPECT_EQ(layer.in_dim(), 4);
  EXPECT_EQ(layer.out_dim(), 3);
  auto params = layer.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->name(), "fc.weight");
  EXPECT_EQ(params[1]->name(), "fc.bias");

  Var out = layer.Forward(Constant(Tensor::Ones(5, 4)));
  EXPECT_EQ(out.rows(), 5);
  EXPECT_EQ(out.cols(), 3);
  // ReLU output is non-negative.
  for (int64_t i = 0; i < out.value().numel(); ++i) {
    EXPECT_GE(out.value().data()[i], 0.0f);
  }
}

TEST(MlpTest, StacksLayersWithCorrectDims) {
  Rng rng(2);
  Mlp mlp("mlp", {8, 16, 4}, Activation::kIdentity, &rng);
  EXPECT_EQ(mlp.in_dim(), 8);
  EXPECT_EQ(mlp.out_dim(), 4);
  EXPECT_EQ(mlp.Parameters().size(), 4u);  // 2 layers x (W, b)
  Var out = mlp.Forward(Constant(Tensor::Ones(3, 8)));
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 4);
}

TEST(CrossNetworkTest, PreservesDimensionAndMatchesManualFormula) {
  Rng rng(3);
  CrossNetwork cross("cross", 4, 1, &rng);
  Tensor x0_data(2, 4, {1, 2, 3, 4, -1, 0, 1, 2});
  Var out = cross.Forward(Constant(x0_data));
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 4);

  // Manual: x1 = x0 * (x0 . w) + b + x0 with b = 0 at init.
  auto params = cross.Parameters();
  const Tensor& w = params[0]->value();  // [4,1]
  for (int64_t r = 0; r < 2; ++r) {
    float xw = 0.0f;
    for (int64_t c = 0; c < 4; ++c) xw += x0_data.at(r, c) * w.at(c, 0);
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(out.value().at(r, c),
                  x0_data.at(r, c) * xw + x0_data.at(r, c), 1e-5f);
    }
  }
}

TEST(CrossNetworkTest, DepthIncreasesPolynomialDegree) {
  // With w = e_0 and b = 0, layer l computes x_{l+1}[0] = x[0]*x_l[0]+x_l[0];
  // starting from x = (2), depth-2 yields degree-3 terms: verify growth.
  Rng rng(4);
  CrossNetwork cross("cross", 1, 2, &rng);
  auto params = cross.Parameters();
  params[0]->value().at(0, 0) = 1.0f;  // w0
  params[2]->value().at(0, 0) = 1.0f;  // w1
  Var out = cross.Forward(Constant(Tensor::Scalar(2.0f)));
  // x1 = 2*2+2 = 6; x2 = 2*6+6 = 18.
  EXPECT_FLOAT_EQ(out.value().scalar(), 18.0f);
}

TEST(TowerTest, DeepCrossConcatHeadShapes) {
  Rng rng(5);
  TowerConfig config;
  config.kind = TowerKind::kDeepCross;
  config.deep_dims = {16, 8};
  config.cross_layers = 2;
  config.output_dim = 6;
  Tower tower("t", 10, config, &rng);
  Var out = tower.Forward(Constant(Tensor::Ones(4, 10)));
  EXPECT_EQ(out.rows(), 4);
  EXPECT_EQ(out.cols(), 6);
}

TEST(TowerTest, FullyConnectedVariantHasNoCrossParameters) {
  Rng rng(6);
  TowerConfig fc_config;
  fc_config.kind = TowerKind::kFullyConnected;
  fc_config.deep_dims = {16, 8};
  fc_config.output_dim = 6;
  Tower fc_tower("fc", 10, fc_config, &rng);

  TowerConfig dcn_config = fc_config;
  dcn_config.kind = TowerKind::kDeepCross;
  dcn_config.cross_layers = 2;
  Tower dcn_tower("dcn", 10, dcn_config, &rng);

  EXPECT_LT(fc_tower.Parameters().size(), dcn_tower.Parameters().size());
  Var out = fc_tower.Forward(Constant(Tensor::Ones(4, 10)));
  EXPECT_EQ(out.cols(), 6);
}

TEST(EmbeddingBagTest, ConcatenatesFieldsAndDense) {
  Rng rng(7);
  std::vector<EmbeddingFieldSpec> fields = {{"cat_a", 10, 3},
                                            {"cat_b", 5, 2}};
  EmbeddingBag bag("bag", fields, &rng);
  EXPECT_EQ(bag.OutputDim(4), 3 + 2 + 4);

  std::vector<std::vector<int64_t>> ids = {{0, 1, 9}, {4, 4, 0}};
  Tensor dense = Tensor::Ones(3, 4);
  Var out = bag.Forward(ids, dense);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 9);
  // The dense block occupies the trailing columns unchanged.
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 5; c < 9; ++c) {
      EXPECT_FLOAT_EQ(out.value().at(r, c), 1.0f);
    }
  }
  // Identical ids produce identical embedding rows.
  for (int64_t c = 3; c < 5; ++c) {
    EXPECT_FLOAT_EQ(out.value().at(0, c), out.value().at(1, c));
  }
}

TEST(EmbeddingBagTest, HashedFieldAcceptsArbitraryIds) {
  Rng rng(17);
  EmbeddingFieldSpec spec;
  spec.name = "seller";
  spec.vocab_size = 0;  // unbounded vocabulary
  spec.embed_dim = 4;
  spec.hash_buckets = 16;
  EmbeddingBag bag("bag", {spec}, &rng);
  // Ids far beyond any vocab must work (new sellers appear daily).
  std::vector<std::vector<int64_t>> ids = {
      {7, 123456789, 7, 999999999999LL}};
  Var out = bag.Forward(ids, Tensor());
  EXPECT_EQ(out.rows(), 4);
  EXPECT_EQ(out.cols(), 4);
  EXPECT_TRUE(out.value().AllFinite());
  // Same raw id -> same bucket -> identical embedding rows.
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(out.value().at(0, c), out.value().at(2, c));
  }
}

TEST(EmbeddingBagTest, HashedFieldGradientsFlowToBuckets) {
  Rng rng(18);
  EmbeddingFieldSpec spec;
  spec.name = "f";
  spec.embed_dim = 2;
  spec.hash_buckets = 8;
  EmbeddingBag bag("bag", {spec}, &rng);
  auto params = bag.Parameters();
  ASSERT_EQ(params.size(), 1u);
  EXPECT_EQ(params[0]->rows(), 8);  // bucket count, not vocab
  Var out = bag.Forward({{42}}, Tensor());
  Var loss = ReduceSum(out);
  Backward(loss);
  // Exactly one bucket row received gradient.
  int touched = 0;
  for (int64_t r = 0; r < 8; ++r) {
    if (params[0]->grad().at(r, 0) != 0.0f) ++touched;
  }
  EXPECT_EQ(touched, 1);
}

TEST(EmbeddingBagTest, NoDenseBlock) {
  Rng rng(8);
  EmbeddingBag bag("bag", {{"f", 4, 2}}, &rng);
  std::vector<std::vector<int64_t>> ids = {{1, 3}};
  Var out = bag.Forward(ids, Tensor());
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 2);
}

TEST(ModuleTest, NumParameterElementsCounts) {
  Rng rng(9);
  Dense layer("fc", 3, 2, Activation::kIdentity, &rng);
  EXPECT_EQ(layer.NumParameterElements(), 3 * 2 + 2);
}

}  // namespace
}  // namespace atnn::nn
