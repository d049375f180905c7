#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

namespace atnn::nn {

namespace {

// Adam's moment decay rates and denominator guard. They stay float, like the
// moments they update; the bias corrections promote them to double.
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

}  // namespace

Adam::Adam(std::vector<Parameter*> params, float learning_rate)
    : params_(std::move(params)), learning_rate_(learning_rate) {
  ATNN_CHECK(learning_rate > 0.0f);
  first_moment_.reserve(params_.size());
  second_moment_.reserve(params_.size());
  for (Parameter* param : params_) {
    ATNN_CHECK(param != nullptr);
    param->node()->EnsureGrad();
    first_moment_.emplace_back(param->rows(), param->cols());
    second_moment_.emplace_back(param->rows(), param->cols());
  }
}

void Adam::ZeroGrad() {
  for (Parameter* param : params_) param->node()->ZeroGrad();
}

const std::vector<int64_t>& Adam::UniqueTouchedRows(const Node& node) {
  std::vector<int64_t>& rows = touched_scratch_;
  rows.assign(node.touched_rows.begin(), node.touched_rows.end());
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

double Adam::ClipGradNorm(double max_norm) {
  ATNN_CHECK(max_norm > 0.0);
  double total = 0.0;
  for (Parameter* param : params_) {
    Node* node = param->node();
    if (node->grad.empty()) continue;
    if (node->IsSparseGrad()) {
      for (int64_t row : UniqueTouchedRows(*node)) {
        const float* g = node->grad.row_ptr(row);
        for (int64_t c = 0; c < node->grad.cols(); ++c) {
          total += static_cast<double>(g[c]) * g[c];
        }
      }
    } else {
      total += node->grad.SquaredNorm();
    }
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Parameter* param : params_) {
      Node* node = param->node();
      if (node->grad.empty()) continue;
      if (node->IsSparseGrad()) {
        for (int64_t row : UniqueTouchedRows(*node)) {
          float* g = node->grad.row_ptr(row);
          for (int64_t c = 0; c < node->grad.cols(); ++c) g[c] *= scale;
        }
      } else {
        node->grad.Scale(scale);
      }
    }
  }
  return norm;
}

void Adam::Step() {
  ++step_;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(step_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(step_));
  const float alpha =
      static_cast<float>(learning_rate_ * std::sqrt(bias2) / bias1);

  for (size_t p = 0; p < params_.size(); ++p) {
    Node* node = params_[p]->node();
    Tensor& value = node->value;
    const Tensor& grad = node->grad;
    if (grad.empty()) continue;
    Tensor& m = first_moment_[p];
    Tensor& v2 = second_moment_[p];

    auto update_row = [&](int64_t row) {
      const float* g = grad.row_ptr(row);
      float* m_row = m.row_ptr(row);
      float* v_row = v2.row_ptr(row);
      float* val = value.row_ptr(row);
      for (int64_t c = 0; c < value.cols(); ++c) {
        m_row[c] = kBeta1 * m_row[c] + (1.0f - kBeta1) * g[c];
        v_row[c] = kBeta2 * v_row[c] + (1.0f - kBeta2) * g[c] * g[c];
        val[c] -= alpha * m_row[c] / (std::sqrt(v_row[c]) + kEpsilon);
      }
    };

    if (node->IsSparseGrad()) {
      // Lazy Adam: rows not in the batch keep stale moments. This matches
      // TF's LazyAdamOptimizer semantics and is the standard trade-off for
      // large embedding tables.
      for (int64_t row : UniqueTouchedRows(*node)) update_row(row);
    } else {
      for (int64_t row = 0; row < value.rows(); ++row) update_row(row);
    }
  }
}

}  // namespace atnn::nn
