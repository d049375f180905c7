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

TEST(AdamTest, FirstStepMatchesClosedForm) {
  // From theta0 with gradient g1, Adam's first step has a closed form:
  //   m1 = (1-b1) g1,  v1 = (1-b2) g1^2,
  //   alpha1 = lr * sqrt(1 - b2) / (1 - b1),
  //   theta1 = theta0 - alpha1 * m1 / (sqrt(v1) + eps)
  //          = theta0 - lr * g1 / (|g1| + eps / sqrt(1 - b2)).
  // A gradient near eps / sqrt(1 - b2) makes that step see eps and b2. b1
  // cancels from any first step, so a second step with another gradient
  // pins it:
  //   m2 = b1 m1 + (1-b1) g2,  v2 = b2 v1 + (1-b2) g2^2,
  //   theta2 = theta1 - lr * sqrt(1 - b2^2) / (1 - b1^2) * m2 /
  //            (sqrt(v2) + eps).
  const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  const double lr = 0.5, theta0 = 2.0, g1 = 3e-7, g2 = -1e-6;
  Parameter x("x", Tensor::Scalar(static_cast<float>(theta0)));
  Adam adam({&x}, static_cast<float>(lr));
  const auto step = [&](double g) {
    adam.ZeroGrad();
    Backward(ReduceSum(Scale(x.var(), static_cast<float>(g))));
    adam.Step();
    return static_cast<double>(x.value().scalar());
  };

  const double m1 = (1.0 - b1) * g1;
  const double v1 = (1.0 - b2) * g1 * g1;
  const double theta1 = theta0 - lr * std::sqrt(1.0 - b2) / (1.0 - b1) * m1 /
                                     (std::sqrt(v1) + eps);
  EXPECT_NEAR(step(g1), theta1, 1e-5);

  const double m2 = b1 * m1 + (1.0 - b1) * g2;
  const double v2 = b2 * v1 + (1.0 - b2) * g2 * g2;
  const double theta2 =
      theta1 - lr * std::sqrt(1.0 - b2 * b2) / (1.0 - b1 * b1) * m2 /
                   (std::sqrt(v2) + eps);
  EXPECT_NEAR(step(g2), theta2, 1e-5);
}

TEST(AdamTest, ZeroGradientLeavesWeightsUnchanged) {
  Parameter w("w", Tensor::Full(1, 4, 1.0f));
  Adam adam({&w}, 0.1f);
  adam.ZeroGrad();
  Var loss = Scale(ReduceSum(w.var()), 0.0f);
  Backward(loss);
  adam.Step();
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(w.value().at(0, c), 1.0f);
  }
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
