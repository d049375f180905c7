#include "nn/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/ops.h"

namespace atnn::nn {
namespace {

/// Minimizes mean((x - target)^2) with Adam and returns the final x values.
Tensor MinimizeQuadratic(int steps, float learning_rate) {
  Parameter x("x", Tensor(1, 2, {5.0f, -3.0f}));
  const Tensor target(1, 2, {1.0f, 2.0f});
  Adam optimizer({&x}, learning_rate);
  for (int i = 0; i < steps; ++i) {
    optimizer.ZeroGrad();
    Var loss = MseLoss(x.var(), target);
    Backward(loss);
    optimizer.Step();
  }
  return x.value();
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor x = MinimizeQuadratic(500, 0.05f);
  EXPECT_NEAR(x.at(0, 0), 1.0f, 1e-2f);
  EXPECT_NEAR(x.at(0, 1), 2.0f, 1e-2f);
}

TEST(AdamTest, StepCountAdvances) {
  Parameter x("x", Tensor::Scalar(1.0f));
  Adam adam({&x}, 0.01f);
  EXPECT_EQ(adam.step_count(), 0);
  adam.ZeroGrad();
  Var loss = Square(x.var());
  Backward(loss);
  adam.Step();
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(AdamTest, DecoupledWeightDecayShrinksPreStepParameter) {
  // One step from theta0 with a constant gradient g has a closed form:
  //   m = (1-b1) g,  v = (1-b2) g^2,
  //   alpha = lr * sqrt(1 - b2^t) / (1 - b1^t)   with t = 1,
  //   theta1 = theta0 - lr*wd*theta0 - alpha * m / (sqrt(v) + eps).
  // Applying the decay to the post-step value instead (the old bug) yields
  //   (theta0 - step) * (1 - lr*wd), which at lr=wd=0.5 is off by
  //   lr*wd*step = 0.125 — far outside the tolerance below.
  const float theta0 = 2.0f;
  const float lr = 0.5f, wd = 0.5f;
  const float b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  Parameter x("x", Tensor::Scalar(theta0));
  Adam adam({&x}, lr, b1, b2, eps, wd);
  adam.ZeroGrad();
  Var loss = ReduceSum(Scale(x.var(), 3.0f));  // gradient = 3 everywhere
  Backward(loss);
  adam.Step();

  const float g = 3.0f;
  const float m = (1.0f - b1) * g;
  const float v = (1.0f - b2) * g * g;
  const float alpha = lr * std::sqrt(1.0f - b2) / (1.0f - b1);
  const float expected =
      theta0 - lr * wd * theta0 - alpha * m / (std::sqrt(v) + eps);
  EXPECT_NEAR(x.value().scalar(), expected, 1e-5f);
}

TEST(AdamTest, WeightDecayDoesNotCompoundOnTheFreshStep) {
  // Same setup, compared against a wd=0 twin: the gap between the two
  // runs after one step must be exactly the decay of theta0 — any
  // dependence of the gap on the Adam step itself means the decay
  // compounded on the fresh update.
  auto one_step = [](float wd) {
    Parameter x("x", Tensor::Scalar(2.0f));
    Adam adam({&x}, 0.5f, 0.9f, 0.999f, 1e-8f, wd);
    adam.ZeroGrad();
    Var loss = ReduceSum(Scale(x.var(), 3.0f));
    Backward(loss);
    adam.Step();
    return x.value().scalar();
  };
  const float gap = one_step(0.0f) - one_step(0.5f);
  EXPECT_NEAR(gap, 0.5f * 0.5f * 2.0f, 1e-5f);
}

TEST(OptimizerTest, ClipGradNormScalesDownLargeGradients) {
  Parameter x("x", Tensor(1, 2, {0.0f, 0.0f}));
  Adam adam({&x}, 1.0f);
  adam.ZeroGrad();
  // Loss = sum(30 * x) -> gradient (30, 30), norm ~42.4.
  Var loss = ReduceSum(Scale(x.var(), 30.0f));
  Backward(loss);
  const double pre_norm = adam.ClipGradNorm(1.0);
  EXPECT_NEAR(pre_norm, 30.0 * std::sqrt(2.0), 1e-3);
  const double post_norm_sq = x.grad().SquaredNorm();
  EXPECT_NEAR(std::sqrt(post_norm_sq), 1.0, 1e-4);
}

TEST(OptimizerTest, ClipGradNormLeavesSmallGradientsAlone) {
  Parameter x("x", Tensor(1, 2, {0.0f, 0.0f}));
  Adam adam({&x}, 1.0f);
  adam.ZeroGrad();
  Var loss = ReduceSum(Scale(x.var(), 0.1f));
  Backward(loss);
  adam.ClipGradNorm(10.0);
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 0.1f);
}

TEST(OptimizerTest, ClipGradNormHandlesSparseRowsWithDuplicates) {
  Parameter table("emb", Tensor::Ones(8, 2));
  Adam adam({&table}, 1.0f);
  adam.ZeroGrad();
  // Row 6 is looked up twice, so its gradient accumulates to (6, 6) while
  // touched_rows records it twice; the norm must count the row once.
  std::vector<int64_t> ids = {1, 6, 6};
  Var loss = ReduceSum(Scale(EmbeddingLookup(table.var(), ids), 3.0f));
  Backward(loss);
  ASSERT_TRUE(table.node()->IsSparseGrad());
  // Rows: 1 -> (3,3), 6 -> (6,6). Norm = sqrt(2*9 + 2*36) = sqrt(90).
  const double pre_norm = adam.ClipGradNorm(1.0);
  EXPECT_NEAR(pre_norm, std::sqrt(90.0), 1e-4);
  double post_sq = 0.0;
  for (int64_t row : {int64_t{1}, int64_t{6}}) {
    for (int64_t c = 0; c < 2; ++c) {
      const double v = table.grad().at(row, c);
      post_sq += v * v;
    }
  }
  EXPECT_NEAR(std::sqrt(post_sq), 1.0, 1e-4);
  // Untouched rows stay exactly zero (clipping must not densify them).
  EXPECT_FLOAT_EQ(table.grad().at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(table.grad().at(7, 1), 0.0f);
}

TEST(OptimizerTest, ClipGradNormLeavesSmallSparseGradientsAlone) {
  Parameter table("emb", Tensor::Ones(8, 2));
  Adam adam({&table}, 1.0f);
  adam.ZeroGrad();
  std::vector<int64_t> ids = {4};
  Var loss = ReduceSum(Scale(EmbeddingLookup(table.var(), ids), 0.1f));
  Backward(loss);
  const double pre_norm = adam.ClipGradNorm(10.0);
  EXPECT_NEAR(pre_norm, 0.1 * std::sqrt(2.0), 1e-6);
  EXPECT_FLOAT_EQ(table.grad().at(4, 0), 0.1f);
}

TEST(OptimizerTest, SparseUpdateTouchesOnlyLookedUpRows) {
  Parameter table("emb", Tensor::Ones(8, 2));
  Adam adam({&table}, 0.1f);
  adam.ZeroGrad();
  std::vector<int64_t> ids = {3, 5};
  Var loss = ReduceSum(EmbeddingLookup(table.var(), ids));
  Backward(loss);
  ASSERT_TRUE(table.node()->IsSparseGrad());
  adam.Step();
  // Rows 3 and 5 moved, every other row untouched.
  for (int64_t r = 0; r < 8; ++r) {
    if (r == 3 || r == 5) {
      EXPECT_NE(table.value().at(r, 0), 1.0f);
    } else {
      EXPECT_FLOAT_EQ(table.value().at(r, 0), 1.0f);
    }
  }
}

TEST(OptimizerTest, SparseAndDenseConvergeToSameResultOnFullTouch) {
  // When every row is touched, the lazy path must match a dense update.
  auto run = [](bool as_sparse) {
    Parameter table("emb", Tensor::Ones(4, 2));
    Adam opt({&table}, 0.1f);
    for (int step = 0; step < 5; ++step) {
      opt.ZeroGrad();
      Var out = as_sparse
                    ? EmbeddingLookup(table.var(),
                                      std::vector<int64_t>{0, 1, 2, 3})
                    : table.var();
      Var loss = ReduceMean(Square(out));
      Backward(loss);
      opt.Step();
    }
    return table.value();
  };
  Tensor sparse_result = run(true);
  Tensor dense_result = run(false);
  for (int64_t i = 0; i < sparse_result.numel(); ++i) {
    EXPECT_NEAR(sparse_result.data()[i], dense_result.data()[i], 1e-6f);
  }
}

TEST(OptimizerTest, ZeroGradClearsSparseRows) {
  Parameter table("emb", Tensor::Ones(8, 2));
  Adam adam({&table}, 0.1f);
  std::vector<int64_t> ids = {2};
  Var loss = ReduceSum(EmbeddingLookup(table.var(), ids));
  Backward(loss);
  EXPECT_NE(table.grad().at(2, 0), 0.0f);
  adam.ZeroGrad();
  EXPECT_FLOAT_EQ(table.grad().at(2, 0), 0.0f);
  EXPECT_TRUE(table.node()->touched_rows.empty());
}

}  // namespace
}  // namespace atnn::nn
