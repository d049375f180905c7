// Property-based sweeps over the op library: algebraic identities and
// invariants that must hold for any shape, checked over a parameterized
// grid of matrix sizes with seeded random contents.

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/ops.h"

namespace atnn::nn {
namespace {

struct Shape {
  int64_t rows;
  int64_t cols;
};

void PrintTo(const Shape& s, std::ostream* os) {
  *os << s.rows << "x" << s.cols;
}

class OpsPropertyTest : public testing::TestWithParam<Shape> {
 protected:
  Tensor Random(int64_t rows, int64_t cols, uint64_t seed,
                float lo = -2.0f, float hi = 2.0f) {
    Rng rng(seed);
    Tensor t(rows, cols);
    for (int64_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = static_cast<float>(rng.Uniform(lo, hi));
    }
    return t;
  }

  static void ExpectNear(const Tensor& a, const Tensor& b, float tol) {
    ASSERT_TRUE(a.SameShape(b));
    for (int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_NEAR(a.data()[i], b.data()[i], tol) << "element " << i;
    }
  }
};

TEST_P(OpsPropertyTest, AddIsCommutative) {
  const auto [rows, cols] = GetParam();
  Var a = Constant(Random(rows, cols, 1));
  Var b = Constant(Random(rows, cols, 2));
  ExpectNear(Add(a, b).value(), Add(b, a).value(), 0.0f);
}

TEST_P(OpsPropertyTest, MulIsCommutative) {
  const auto [rows, cols] = GetParam();
  Var a = Constant(Random(rows, cols, 3));
  Var b = Constant(Random(rows, cols, 4));
  ExpectNear(Mul(a, b).value(), Mul(b, a).value(), 0.0f);
}

TEST_P(OpsPropertyTest, SubOfSelfIsZero) {
  const auto [rows, cols] = GetParam();
  Var a = Constant(Random(rows, cols, 5));
  EXPECT_EQ(Sub(a, a).value().AbsMax(), 0.0f);
}

TEST_P(OpsPropertyTest, ConcatThenSliceRecoversParts) {
  const auto [rows, cols] = GetParam();
  Var a = Constant(Random(rows, cols, 6));
  Var b = Constant(Random(rows, cols + 1, 7));
  const Var joined = ConcatCols({a, b});
  ASSERT_EQ(joined.rows(), rows);
  ASSERT_EQ(joined.cols(), 2 * cols + 1);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      EXPECT_EQ(joined.value().at(r, c), a.value().at(r, c));
    }
    for (int64_t c = 0; c <= cols; ++c) {
      EXPECT_EQ(joined.value().at(r, cols + c), b.value().at(r, c));
    }
  }
}

TEST_P(OpsPropertyTest, MatMulWithIdentityIsNoop) {
  const auto [rows, cols] = GetParam();
  Var a = Constant(Random(rows, cols, 8));
  Tensor eye(cols, cols);
  for (int64_t i = 0; i < cols; ++i) eye.at(i, i) = 1.0f;
  ExpectNear(MatMul(a, Constant(eye)).value(), a.value(), 1e-5f);
}

TEST_P(OpsPropertyTest, MatMulDistributesOverAdd) {
  const auto [rows, cols] = GetParam();
  Var a = Constant(Random(rows, cols, 9));
  Var b = Constant(Random(rows, cols, 10));
  Var w = Constant(Random(cols, 3, 11));
  ExpectNear(MatMul(Add(a, b), w).value(),
             Add(MatMul(a, w), MatMul(b, w)).value(), 1e-4f);
}

TEST_P(OpsPropertyTest, SigmoidBoundsAndSymmetry) {
  const auto [rows, cols] = GetParam();
  Tensor data = Random(rows, cols, 12, -6.0f, 6.0f);
  Var pos = Sigmoid(Constant(data));
  Tensor negated = data;
  negated.Scale(-1.0f);
  Var neg = Sigmoid(Constant(negated));
  for (int64_t i = 0; i < data.numel(); ++i) {
    const float p = pos.value().data()[i];
    EXPECT_GT(p, 0.0f);
    EXPECT_LT(p, 1.0f);
    // sigmoid(-x) = 1 - sigmoid(x)
    EXPECT_NEAR(neg.value().data()[i], 1.0f - p, 1e-6f);
  }
}

TEST_P(OpsPropertyTest, ReluPlusNegatedReluIsIdentityMinusAbs) {
  // relu(x) - relu(-x) = x for all x.
  const auto [rows, cols] = GetParam();
  Tensor data = Random(rows, cols, 13);
  Var x = Constant(data);
  Tensor negated = data;
  negated.Scale(-1.0f);
  Var reconstructed = Sub(Relu(x), Relu(Constant(negated)));
  ExpectNear(reconstructed.value(), data, 1e-6f);
}

TEST_P(OpsPropertyTest, RowwiseSumMatchesReduceOverRows) {
  const auto [rows, cols] = GetParam();
  Tensor data = Random(rows, cols, 14);
  Var sums = RowwiseSum(Constant(data));
  for (int64_t r = 0; r < rows; ++r) {
    double expected = 0.0;
    for (int64_t c = 0; c < cols; ++c) expected += data.at(r, c);
    EXPECT_NEAR(sums.value().at(r, 0), expected, 1e-4);
  }
}

TEST_P(OpsPropertyTest, RowwiseDotWithSelfIsSquaredNorm) {
  const auto [rows, cols] = GetParam();
  Var a = Constant(Random(rows, cols, 15));
  Var dot = RowwiseDot(a, a);
  Var norm = RowwiseNorm(a, 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    EXPECT_NEAR(dot.value().at(r, 0),
                norm.value().at(r, 0) * norm.value().at(r, 0), 1e-3);
  }
}

TEST_P(OpsPropertyTest, CosineSimilarityOfSelfIsOne) {
  const auto [rows, cols] = GetParam();
  // Bounded away from zero so norms are stable.
  Var a = Constant(Random(rows, cols, 16, 0.5f, 2.0f));
  Var cosine = CosineSimilarityRows(a, a);
  for (int64_t r = 0; r < rows; ++r) {
    EXPECT_NEAR(cosine.value().at(r, 0), 1.0f, 1e-4f);
  }
}

TEST_P(OpsPropertyTest, CosineSimilarityScaleInvariant) {
  const auto [rows, cols] = GetParam();
  Var a = Constant(Random(rows, cols, 17, 0.5f, 2.0f));
  Var b = Constant(Random(rows, cols, 18, 0.5f, 2.0f));
  Var base = CosineSimilarityRows(a, b);
  Var scaled = CosineSimilarityRows(Scale(a, 7.5f), b);
  ExpectNear(base.value(), scaled.value(), 1e-4f);
}

TEST_P(OpsPropertyTest, BceLossNonNegativeAndZeroAtCertainty) {
  const auto [rows, cols] = GetParam();
  (void)cols;  // loss heads are [n, 1]
  Tensor labels(rows, 1);
  Rng rng(19);
  for (int64_t r = 0; r < rows; ++r) {
    labels.at(r, 0) = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  Var logits = Constant(Random(rows, 1, 20, -3.0f, 3.0f));
  EXPECT_GE(SigmoidBceLossWithLogits(logits, labels).value().scalar(), 0.0f);

  // Extreme correct logits -> loss near zero.
  Tensor confident(rows, 1);
  for (int64_t r = 0; r < rows; ++r) {
    confident.at(r, 0) = labels.at(r, 0) > 0.5f ? 30.0f : -30.0f;
  }
  EXPECT_NEAR(
      SigmoidBceLossWithLogits(Constant(confident), labels).value().scalar(),
      0.0f, 1e-6f);
}

TEST_P(OpsPropertyTest, BackwardTwiceDoublesGradient) {
  const auto [rows, cols] = GetParam();
  Var x = Leaf(Random(rows, cols, 21));
  Var loss1 = ReduceMean(Square(x));
  Backward(loss1);
  Tensor once = x.grad();
  Var loss2 = ReduceMean(Square(x));
  Backward(loss2);
  for (int64_t i = 0; i < once.numel(); ++i) {
    EXPECT_NEAR(x.grad().data()[i], 2.0f * once.data()[i], 1e-5f);
  }
}

TEST_P(OpsPropertyTest, MseLossZeroIffEqual) {
  const auto [rows, cols] = GetParam();
  Tensor target = Random(rows, cols, 22);
  EXPECT_NEAR(MseLoss(Constant(target), target).value().scalar(), 0.0f,
              1e-7f);
  Tensor shifted = target;
  shifted.at(0, 0) += 1.0f;
  EXPECT_GT(MseLoss(Constant(shifted), target).value().scalar(), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OpsPropertyTest,
    testing::Values(Shape{1, 1}, Shape{1, 7}, Shape{5, 1}, Shape{3, 4},
                    Shape{8, 8}, Shape{17, 33}, Shape{64, 5}),
    [](const testing::TestParamInfo<Shape>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols);
    });

}  // namespace
}  // namespace atnn::nn
