#include "nn/layers.h"

#include <cstring>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

namespace atnn::nn {
namespace {

// Growing a vector of layers must move their parameters, never deep-copy
// them, and a copy must not be reseated by assignment.
static_assert(std::is_nothrow_move_constructible_v<Parameter>);
static_assert(std::is_nothrow_move_constructible_v<Dense>);
static_assert(!std::is_copy_assignable_v<Parameter>);

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.numel()) * sizeof(float)) == 0);
}

/// Checks one copied parameter: the source's name, op and bits on a leaf
/// of its own with no gradient, and a write into either side leaves the
/// other as it was. Overwrites both values.
void ExpectDeepParameterCopy(Parameter* source, Parameter* copy) {
  SCOPED_TRACE(source->name());
  EXPECT_EQ(copy->name(), source->name());
  EXPECT_EQ(copy->node()->op, source->node()->op);
  EXPECT_TRUE(BitwiseEqual(copy->value(), source->value()));
  EXPECT_NE(copy->node(), source->node());
  EXPECT_TRUE(copy->node()->is_parameter);
  EXPECT_TRUE(copy->node()->requires_grad);
  EXPECT_TRUE(copy->grad().empty());
  EXPECT_TRUE(copy->node()->touched_rows.empty());

  const Tensor copy_before = copy->value();
  source->value().Fill(-3.0f);
  EXPECT_TRUE(BitwiseEqual(copy->value(), copy_before));
  const Tensor source_before = source->value();
  copy->value().Fill(5.0f);
  EXPECT_TRUE(BitwiseEqual(source->value(), source_before));
}

/// ExpectDeepParameterCopy over every parameter of a copied module, plus
/// no copy node among the source's. The source must carry gradients, so
/// the copy's empty ones show it took none. Overwrites every value.
void ExpectDeepModuleCopy(Module* source, Module* copy) {
  const std::vector<Parameter*> from = source->Parameters();
  const std::vector<Parameter*> to = copy->Parameters();
  ASSERT_EQ(to.size(), from.size());
  std::set<const Node*> source_nodes;
  bool source_has_grad = false;
  for (const Parameter* param : from) {
    source_nodes.insert(param->node());
    source_has_grad = source_has_grad || !param->grad().empty();
  }
  EXPECT_TRUE(source_has_grad);
  for (size_t i = 0; i < from.size(); ++i) {
    EXPECT_EQ(source_nodes.count(to[i]->node()), 0u) << to[i]->name();
    ExpectDeepParameterCopy(from[i], to[i]);
  }
}

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

TEST(ParameterCopyTest, CopyIsANewLeafWithTheSameBitsAndNoGrad) {
  Rng rng(21);
  Parameter source("p", NormalInit(3, 4, 1.0f, &rng));
  const Tensor x = NormalInit(2, 3, 1.0f, &rng);
  Backward(ReduceSum(MatMul(Constant(x), source.var())));
  ASSERT_FALSE(source.grad().empty());

  Parameter copy(source);
  EXPECT_TRUE(BitwiseEqual(MatMul(Constant(x), copy.var()).value(),
                           MatMul(Constant(x), source.var()).value()));
  ExpectDeepParameterCopy(&source, &copy);
}

TEST(ParameterCopyTest, MovesKeepTheNode) {
  Rng rng(22);
  std::vector<Parameter> params;
  params.emplace_back("p0", NormalInit(2, 2, 1.0f, &rng));
  const Node* first = params[0].node();
  for (int i = 1; i < 64; ++i) {
    params.emplace_back(std::to_string(i), Tensor::Zeros(1, 1));
  }
  EXPECT_EQ(params[0].node(), first);
  const Parameter moved(std::move(params[0]));
  EXPECT_EQ(moved.node(), first);
  EXPECT_EQ(moved.name(), "p0");
}

TEST(DenseTest, CopyIsDeepAndComputesTheSameBits) {
  Rng rng(23);
  Dense source("fc", 5, 4, Activation::kRelu, &rng);
  const Tensor x = NormalInit(3, 5, 1.0f, &rng);
  Backward(ReduceSum(source.Forward(Constant(x))));

  Dense copy(source);
  EXPECT_EQ(copy.activation(), source.activation());
  EXPECT_TRUE(BitwiseEqual(copy.Forward(Constant(x)).value(),
                           source.Forward(Constant(x)).value()));
  ExpectDeepModuleCopy(&source, &copy);
}

TEST(CrossNetworkTest, CopyIsDeepAndComputesTheSameBits) {
  Rng rng(24);
  CrossNetwork source("cross", 6, 3, &rng);
  const Tensor x = NormalInit(4, 6, 1.0f, &rng);
  Backward(ReduceSum(source.Forward(Constant(x))));

  CrossNetwork copy(source);
  EXPECT_EQ(copy.num_layers(), source.num_layers());
  EXPECT_TRUE(BitwiseEqual(copy.Forward(Constant(x)).value(),
                           source.Forward(Constant(x)).value()));
  ExpectDeepModuleCopy(&source, &copy);
}

TEST(EmbeddingBagTest, CopyIsDeepAndComputesTheSameBits) {
  Rng rng(25);
  EmbeddingFieldSpec hashed;
  hashed.name = "seller";
  hashed.embed_dim = 3;
  hashed.hash_buckets = 16;
  EmbeddingBag source("bag", {{"cat", 10, 4}, hashed}, &rng);
  const std::vector<std::vector<int64_t>> ids = {{0, 7, 9}, {5, 123456, 5}};
  const Tensor dense = NormalInit(3, 2, 1.0f, &rng);
  Backward(ReduceSum(source.Forward(ids, dense)));
  ASSERT_FALSE(source.table(0).node()->touched_rows.empty());

  EmbeddingBag copy(source);
  ASSERT_EQ(copy.num_fields(), source.num_fields());
  EXPECT_EQ(copy.field(1).hash_buckets, source.field(1).hash_buckets);
  EXPECT_TRUE(BitwiseEqual(copy.Forward(ids, dense).value(),
                           source.Forward(ids, dense).value()));
  ExpectDeepModuleCopy(&source, &copy);
}

TEST(TowerTest, CopyIsDeepAndComputesTheSameBits) {
  for (const TowerKind kind :
       {TowerKind::kDeepCross, TowerKind::kFullyConnected}) {
    SCOPED_TRACE(kind == TowerKind::kDeepCross ? "deep_cross"
                                               : "fully_connected");
    Rng rng(26);
    TowerConfig config;
    config.kind = kind;
    config.deep_dims = {16, 8};
    config.cross_layers = 2;
    config.output_dim = 6;
    Tower source("t", 10, config, &rng);
    const Tensor x = NormalInit(4, 10, 1.0f, &rng);
    Backward(ReduceSum(source.Forward(Constant(x))));

    Tower copy(source);
    EXPECT_EQ(copy.cross() == nullptr, source.cross() == nullptr);
    if (source.cross() != nullptr) {
      EXPECT_NE(copy.cross(), source.cross());
    }
    EXPECT_TRUE(BitwiseEqual(copy.Forward(Constant(x)).value(),
                             source.Forward(Constant(x)).value()));
    ExpectDeepModuleCopy(&source, &copy);
  }
}

TEST(ModuleTest, NumParameterElementsCounts) {
  Rng rng(9);
  Dense layer("fc", 3, 2, Activation::kIdentity, &rng);
  EXPECT_EQ(layer.NumParameterElements(), 3 * 2 + 2);
}

}  // namespace
}  // namespace atnn::nn
