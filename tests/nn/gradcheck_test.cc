// Finite-difference verification of every differentiable op and layer.
// Each case defines a scalar-valued function of one or more leaf tensors;
// the analytic gradient from Backward() must match central differences.

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace atnn::nn {
namespace {

struct GradCase {
  std::string name;
  std::vector<std::pair<int64_t, int64_t>> input_shapes;
  std::function<Var(const std::vector<Var>&)> fn;
  /// Inputs drawn from U(lo, hi); keep denominators away from zero for div.
  float lo = -1.0f;
  float hi = 1.0f;
};

void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

class GradCheckTest : public testing::TestWithParam<GradCase> {};

double EvalAt(const GradCase& c, std::vector<Tensor> values) {
  std::vector<Var> leaves;
  leaves.reserve(values.size());
  for (Tensor& v : values) leaves.push_back(Constant(std::move(v)));
  return c.fn(leaves).value().scalar();
}

TEST_P(GradCheckTest, AnalyticMatchesNumeric) {
  const GradCase& c = GetParam();
  Rng rng(2718);
  std::vector<Tensor> inputs;
  for (const auto& [rows, cols] : c.input_shapes) {
    Tensor t(rows, cols);
    for (int64_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = static_cast<float>(rng.Uniform(c.lo, c.hi));
    }
    inputs.push_back(std::move(t));
  }

  // Analytic gradients.
  std::vector<Var> leaves;
  leaves.reserve(inputs.size());
  for (const Tensor& t : inputs) leaves.push_back(Leaf(t));
  Var loss = c.fn(leaves);
  ASSERT_EQ(loss.value().numel(), 1) << "grad-check functions must be scalar";
  Backward(loss);

  const double eps = 5e-3;
  for (size_t input = 0; input < inputs.size(); ++input) {
    for (int64_t i = 0; i < inputs[input].numel(); ++i) {
      std::vector<Tensor> plus = inputs;
      std::vector<Tensor> minus = inputs;
      plus[input].data()[i] += static_cast<float>(eps);
      minus[input].data()[i] -= static_cast<float>(eps);
      const double numeric =
          (EvalAt(c, std::move(plus)) - EvalAt(c, std::move(minus))) /
          (2.0 * eps);
      const double analytic = leaves[input].grad().data()[i];
      const double denom =
          std::max(1.0, std::abs(numeric) + std::abs(analytic));
      EXPECT_NEAR(analytic / denom, numeric / denom, 2e-2)
          << c.name << " input " << input << " element " << i
          << " analytic=" << analytic << " numeric=" << numeric;
    }
  }
}

Tensor FixedLabels(int64_t n) {
  Tensor labels(n, 1);
  for (int64_t i = 0; i < n; ++i) labels.at(i, 0) = (i % 2 == 0) ? 1.0f : 0.0f;
  return labels;
}

std::vector<GradCase> MakeCases() {
  std::vector<GradCase> cases;
  cases.push_back({"matmul",
                   {{3, 4}, {4, 2}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(MatMul(v[0], v[1])));
                   }});
  cases.push_back({"add",
                   {{2, 3}, {2, 3}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(Add(v[0], v[1])));
                   }});
  cases.push_back({"sub",
                   {{2, 3}, {2, 3}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(Sub(v[0], v[1])));
                   }});
  cases.push_back({"mul",
                   {{2, 3}, {2, 3}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(Mul(v[0], v[1])));
                   }});
  cases.push_back({"div",
                   {{2, 3}, {2, 3}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(Div(v[0], v[1])));
                   },
                   1.0f, 2.0f});  // keep denominator positive
  cases.push_back({"scale",
                   {{2, 3}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(Scale(v[0], -1.7f)));
                   }});
  cases.push_back({"add_bias",
                   {{3, 4}, {1, 4}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(AddBias(v[0], v[1])));
                   }});
  cases.push_back({"scale_rows",
                   {{3, 4}, {3, 1}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(ScaleRows(v[0], v[1])));
                   }});
  cases.push_back({"sigmoid",
                   {{2, 3}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(Sigmoid(v[0])));
                   },
                   -2.0f, 2.0f});
  cases.push_back({"relu",
                   {{2, 5}},
                   [](const std::vector<Var>& v) {
                     // Shift inputs away from the kink at 0.
                     return ReduceMean(Square(Relu(v[0])));
                   },
                   0.2f, 1.5f});
  cases.push_back({"relu_negative_side",
                   {{2, 5}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(Relu(v[0])));
                   },
                   -1.5f, -0.2f});
  cases.push_back({"concat_cols",
                   {{2, 3}, {2, 2}, {2, 4}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(
                         Square(ConcatCols({v[0], v[1], v[2]})));
                   }});
  cases.push_back({"reduce_sum",
                   {{3, 3}},
                   [](const std::vector<Var>& v) {
                     return Square(ReduceSum(v[0]));
                   }});
  cases.push_back({"rowwise_dot",
                   {{3, 4}, {3, 4}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(RowwiseDot(v[0], v[1])));
                   }});
  cases.push_back({"rowwise_sum",
                   {{3, 4}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(RowwiseSum(v[0])));
                   }});
  cases.push_back({"rowwise_norm",
                   {{3, 4}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(Square(RowwiseNorm(v[0])));
                   },
                   0.5f, 1.5f});
  cases.push_back({"cosine_similarity",
                   {{3, 4}, {3, 4}},
                   [](const std::vector<Var>& v) {
                     return ReduceMean(
                         Square(CosineSimilarityRows(v[0], v[1])));
                   },
                   0.3f, 1.2f});
  cases.push_back({"bce_with_logits",
                   {{6, 1}},
                   [](const std::vector<Var>& v) {
                     return SigmoidBceLossWithLogits(v[0], FixedLabels(6));
                   },
                   -2.0f, 2.0f});
  cases.push_back({"mse_loss",
                   {{5, 1}},
                   [](const std::vector<Var>& v) {
                     Tensor target(5, 1);
                     for (int64_t i = 0; i < 5; ++i) {
                       target.at(i, 0) = 0.3f * static_cast<float>(i);
                     }
                     return MseLoss(v[0], target);
                   }});
  cases.push_back({"mse_between",
                   {{3, 4}, {3, 4}},
                   [](const std::vector<Var>& v) {
                     return MseBetween(v[0], v[1]);
                   }});
  cases.push_back({"embedding_lookup",
                   {{6, 3}},
                   [](const std::vector<Var>& v) {
                     const std::vector<int64_t> ids = {0, 2, 2, 5};
                     return ReduceMean(Square(EmbeddingLookup(v[0], ids)));
                   }});
  // Composite: the DCN cross layer built from primitives.
  cases.push_back({"cross_layer_composite",
                   {{3, 4}, {4, 1}, {1, 4}},
                   [](const std::vector<Var>& v) {
                     Var x0 = v[0];
                     Var crossed = Add(
                         AddBias(ScaleRows(x0, MatMul(x0, v[1])), v[2]), x0);
                     return ReduceMean(Square(crossed));
                   }});
  // Composite: the paper's full generator-step objective L_g + lambda L_s.
  cases.push_back(
      {"generator_objective",
       {{4, 3}, {4, 3}},
       [](const std::vector<Var>& v) {
         Var gen_vec = v[0];
         Var user_vec = v[1];
         Var logits = AddBias(RowwiseDot(gen_vec, user_vec),
                              Constant(Tensor::Scalar(0.2f)));
         Var loss_g = SigmoidBceLossWithLogits(logits, FixedLabels(4));
         Var target = StopGradient(user_vec);
         Var ones = Constant(Tensor::Ones(4, 1));
         Var loss_s = ReduceMean(
             Square(Sub(ones, CosineSimilarityRows(gen_vec, target))));
         return Add(loss_g, Scale(loss_s, 0.1f));
       },
       0.3f, 1.0f});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, GradCheckTest,
                         testing::ValuesIn(MakeCases()),
                         [](const testing::TestParamInfo<GradCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace atnn::nn
