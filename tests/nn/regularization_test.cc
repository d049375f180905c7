// Tests for AdamW weight decay.

#include <cmath>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/ops.h"

namespace atnn::nn {
namespace {

TEST(AdamWTest, WeightDecayShrinksUnusedDirections) {
  // With zero gradient signal, decoupled decay pulls weights toward zero.
  Parameter w("w", Tensor::Full(1, 4, 1.0f));
  Adam adam({&w}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int step = 0; step < 50; ++step) {
    adam.ZeroGrad();
    // Loss independent of w beyond a tiny epsilon coupling keeps grads ~0.
    Var loss = Scale(ReduceSum(w.var()), 0.0f);
    Backward(loss);
    adam.Step();
  }
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_LT(w.value().at(0, c), 0.7f);
    EXPECT_GT(w.value().at(0, c), 0.0f);
  }
}

TEST(AdamWTest, NoDecayKeepsWeightsWithZeroGradient) {
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

}  // namespace
}  // namespace atnn::nn
