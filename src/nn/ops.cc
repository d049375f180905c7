#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "nn/matmul.h"

namespace atnn::nn {

namespace {

/// Creates an op node whose requires_grad is inherited from its parents.
/// Under NoGradGuard the node records neither parent edges nor
/// requires_grad: the op callers then skip installing backward closures,
/// so inference forwards build no tape and intermediate values are freed
/// as soon as the last Var referencing them goes out of scope.
NodePtr MakeNode(Tensor value, NodeVector parents, const char* op) {
  NodePtr node = AllocateNode();
  node->value = std::move(value);
  node->op = op;
  if (!GradModeEnabled()) return node;
  node->parents = std::move(parents);
  for (const auto& parent : node->parents) {
    if (parent->requires_grad) {
      node->requires_grad = true;
      break;
    }
  }
  return node;
}

/// 1x1 scratch tensor holding `value` (loss outputs; arena-backed inside a
/// scope, unlike Tensor::Scalar which always heap-allocates).
Tensor ScratchScalar(float value) {
  Tensor out = ScratchTensorUninit(1, 1);
  out.data()[0] = value;
  return out;
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  ATNN_CHECK_EQ(a.cols(), b.rows());
  Tensor out = ScratchTensorUninit(a.rows(), b.cols());
  MatMulInto(a.value(), b.value(), &out);
  auto node = MakeNode(std::move(out), {a.node(), b.node()}, "matmul");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& a_node = self->parents[0];
      const NodePtr& b_node = self->parents[1];
      if (a_node->requires_grad) {
        a_node->EnsureGrad();
        MatMulTransBAccum(self->grad, b_node->value, &a_node->grad);
        a_node->has_dense_grad = true;
      }
      if (b_node->requires_grad) {
        b_node->EnsureGrad();
        MatMulTransAAccum(a_node->value, self->grad, &b_node->grad);
        b_node->has_dense_grad = true;
      }
    };
  }
  return Var(node);
}

Var DenseAffine(const Var& x, const Var& w, const Var& b, Activation act) {
  ATNN_CHECK_EQ(x.cols(), w.rows());
  ATNN_CHECK(b.rows() == 1 && b.cols() == w.cols());
  const int64_t m = x.rows();
  const int64_t k = x.cols();
  const int64_t n = w.cols();
  const kernels::KernelTable& kt = kernels::Kernels();
  Tensor out = ScratchTensorUninit(m, n);
  kt.gemm(m, k, n, x.value().data(), w.value().data(), out.data());
  if (act == Activation::kRelu) {
    kt.bias_relu(m, n, b.value().data(), out.data());
  } else {
    kt.bias_identity(m, n, b.value().data(), out.data());
  }
  auto node = MakeNode(std::move(out), {x.node(), w.node(), b.node()},
                       "dense_affine");
  if (node->requires_grad) {
    node->backward_fn = [act](Node* self) {
      const NodePtr& x_node = self->parents[0];
      const NodePtr& w_node = self->parents[1];
      const NodePtr& b_node = self->parents[2];
      const int64_t rows = self->grad.rows();
      const int64_t cols = self->grad.cols();
      // dZ (gradient at the pre-activation) is recovered from the OUTPUT:
      // for relu, y > 0 iff z > 0. The loop order matches the unfused Relu
      // backward exactly, so results are bitwise-identical to the
      // three-node composition on the scalar backend.
      Tensor dz_local;
      const Tensor* dz = &self->grad;
      if (act == Activation::kRelu) {
        dz_local = ScratchTensorUninit(rows, cols);
        const float* g = self->grad.data();
        const float* y = self->value.data();
        float* dst = dz_local.data();
        const int64_t count = self->grad.numel();
        for (int64_t i = 0; i < count; ++i) {
          dst[i] = y[i] > 0.0f ? g[i] : 0.0f;
        }
        dz = &dz_local;
      }
      // Same accumulation order as the unfused chain: bias first (the
      // AddBias node sits closer to the root than the MatMul node), then
      // dX, then dW.
      if (b_node->requires_grad) {
        b_node->EnsureGrad();
        float* db = b_node->grad.data();
        for (int64_t r = 0; r < rows; ++r) {
          const float* g = dz->row_ptr(r);
          for (int64_t c = 0; c < cols; ++c) db[c] += g[c];
        }
        b_node->has_dense_grad = true;
      }
      if (x_node->requires_grad) {
        x_node->EnsureGrad();
        MatMulTransBAccum(*dz, w_node->value, &x_node->grad);
        x_node->has_dense_grad = true;
      }
      if (w_node->requires_grad) {
        w_node->EnsureGrad();
        MatMulTransAAccum(x_node->value, *dz, &w_node->grad);
        w_node->has_dense_grad = true;
      }
    };
  }
  return Var(node);
}

Var Add(const Var& a, const Var& b) {
  ATNN_CHECK(a.value().SameShape(b.value()))
      << a.value().ShapeString() << " vs " << b.value().ShapeString();
  Tensor out = ScratchCopy(a.value());
  out.AddInPlace(b.value());
  auto node = MakeNode(std::move(out), {a.node(), b.node()}, "add");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      for (const auto& parent : self->parents) {
        if (parent->requires_grad) parent->AccumulateGrad(self->grad);
      }
    };
  }
  return Var(node);
}

Var Sub(const Var& a, const Var& b) {
  ATNN_CHECK(a.value().SameShape(b.value()))
      << a.value().ShapeString() << " vs " << b.value().ShapeString();
  Tensor out = ScratchCopy(a.value());
  out.Axpy(-1.0f, b.value());
  auto node = MakeNode(std::move(out), {a.node(), b.node()}, "sub");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& a_node = self->parents[0];
      const NodePtr& b_node = self->parents[1];
      if (a_node->requires_grad) a_node->AccumulateGrad(self->grad);
      if (b_node->requires_grad) {
        b_node->EnsureGrad();
        b_node->grad.Axpy(-1.0f, self->grad);
        b_node->has_dense_grad = true;
      }
    };
  }
  return Var(node);
}

Var Mul(const Var& a, const Var& b) {
  ATNN_CHECK(a.value().SameShape(b.value()))
      << a.value().ShapeString() << " vs " << b.value().ShapeString();
  Tensor out = ScratchCopy(a.value());
  {
    float* dst = out.data();
    const float* src = b.value().data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i) dst[i] *= src[i];
  }
  auto node = MakeNode(std::move(out), {a.node(), b.node()}, "mul");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& a_node = self->parents[0];
      const NodePtr& b_node = self->parents[1];
      const int64_t n = self->grad.numel();
      if (a_node->requires_grad) {
        a_node->EnsureGrad();
        float* dst = a_node->grad.data();
        const float* g = self->grad.data();
        const float* bv = b_node->value.data();
        for (int64_t i = 0; i < n; ++i) dst[i] += g[i] * bv[i];
        a_node->has_dense_grad = true;
      }
      if (b_node->requires_grad) {
        b_node->EnsureGrad();
        float* dst = b_node->grad.data();
        const float* g = self->grad.data();
        const float* av = a_node->value.data();
        for (int64_t i = 0; i < n; ++i) dst[i] += g[i] * av[i];
        b_node->has_dense_grad = true;
      }
    };
  }
  return Var(node);
}

Var Div(const Var& a, const Var& b) {
  ATNN_CHECK(a.value().SameShape(b.value()))
      << a.value().ShapeString() << " vs " << b.value().ShapeString();
  Tensor out = ScratchCopy(a.value());
  {
    float* dst = out.data();
    const float* src = b.value().data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i) dst[i] /= src[i];
  }
  auto node = MakeNode(std::move(out), {a.node(), b.node()}, "div");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& a_node = self->parents[0];
      const NodePtr& b_node = self->parents[1];
      const int64_t n = self->grad.numel();
      const float* g = self->grad.data();
      const float* bv = b_node->value.data();
      if (a_node->requires_grad) {
        a_node->EnsureGrad();
        float* dst = a_node->grad.data();
        for (int64_t i = 0; i < n; ++i) dst[i] += g[i] / bv[i];
        a_node->has_dense_grad = true;
      }
      if (b_node->requires_grad) {
        b_node->EnsureGrad();
        float* dst = b_node->grad.data();
        const float* av = a_node->value.data();
        for (int64_t i = 0; i < n; ++i) {
          dst[i] -= g[i] * av[i] / (bv[i] * bv[i]);
        }
        b_node->has_dense_grad = true;
      }
    };
  }
  return Var(node);
}

Var Scale(const Var& a, float alpha) {
  Tensor out = ScratchCopy(a.value());
  out.Scale(alpha);
  auto node = MakeNode(std::move(out), {a.node()}, "scale");
  if (node->requires_grad) {
    node->backward_fn = [alpha](Node* self) {
      const NodePtr& a_node = self->parents[0];
      if (!a_node->requires_grad) return;
      a_node->EnsureGrad();
      a_node->grad.Axpy(alpha, self->grad);
      a_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var AddBias(const Var& x, const Var& bias) {
  ATNN_CHECK_EQ(bias.rows(), 1);
  ATNN_CHECK_EQ(bias.cols(), x.cols());
  Tensor out = ScratchCopy(x.value());
  kernels::Kernels().bias_identity(out.rows(), out.cols(),
                                   bias.value().data(), out.data());
  auto node = MakeNode(std::move(out), {x.node(), bias.node()}, "add_bias");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& x_node = self->parents[0];
      const NodePtr& b_node = self->parents[1];
      if (x_node->requires_grad) x_node->AccumulateGrad(self->grad);
      if (b_node->requires_grad) {
        b_node->EnsureGrad();
        float* dst = b_node->grad.data();
        for (int64_t r = 0; r < self->grad.rows(); ++r) {
          const float* row = self->grad.row_ptr(r);
          for (int64_t c = 0; c < self->grad.cols(); ++c) dst[c] += row[c];
        }
        b_node->has_dense_grad = true;
      }
    };
  }
  return Var(node);
}

Var ScaleRows(const Var& x, const Var& s) {
  ATNN_CHECK_EQ(s.cols(), 1);
  ATNN_CHECK_EQ(s.rows(), x.rows());
  Tensor out = ScratchCopy(x.value());
  for (int64_t r = 0; r < out.rows(); ++r) {
    const float factor = s.value().at(r, 0);
    float* row = out.row_ptr(r);
    for (int64_t c = 0; c < out.cols(); ++c) row[c] *= factor;
  }
  auto node = MakeNode(std::move(out), {x.node(), s.node()}, "scale_rows");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& x_node = self->parents[0];
      const NodePtr& s_node = self->parents[1];
      const int64_t rows = self->grad.rows();
      const int64_t cols = self->grad.cols();
      if (x_node->requires_grad) {
        x_node->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          const float factor = s_node->value.at(r, 0);
          const float* g = self->grad.row_ptr(r);
          float* dst = x_node->grad.row_ptr(r);
          for (int64_t c = 0; c < cols; ++c) dst[c] += g[c] * factor;
        }
        x_node->has_dense_grad = true;
      }
      if (s_node->requires_grad) {
        s_node->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          const float* g = self->grad.row_ptr(r);
          const float* xv = x_node->value.row_ptr(r);
          float acc = 0.0f;
          for (int64_t c = 0; c < cols; ++c) acc += g[c] * xv[c];
          s_node->grad.at(r, 0) += acc;
        }
        s_node->has_dense_grad = true;
      }
    };
  }
  return Var(node);
}

Var Sigmoid(const Var& x) {
  Tensor out = ScratchCopy(x.value());
  {
    float* dst = out.data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i) {
      dst[i] = 1.0f / (1.0f + std::exp(-dst[i]));
    }
  }
  auto node = MakeNode(std::move(out), {x.node()}, "sigmoid");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& x_node = self->parents[0];
      if (!x_node->requires_grad) return;
      x_node->EnsureGrad();
      const float* g = self->grad.data();
      const float* y = self->value.data();
      float* dst = x_node->grad.data();
      const int64_t n = self->grad.numel();
      for (int64_t i = 0; i < n; ++i) dst[i] += g[i] * y[i] * (1.0f - y[i]);
      x_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var Relu(const Var& x) {
  Tensor out = ScratchCopy(x.value());
  {
    float* dst = out.data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], 0.0f);
  }
  auto node = MakeNode(std::move(out), {x.node()}, "relu");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& x_node = self->parents[0];
      if (!x_node->requires_grad) return;
      x_node->EnsureGrad();
      const float* g = self->grad.data();
      const float* xv = x_node->value.data();
      float* dst = x_node->grad.data();
      const int64_t n = self->grad.numel();
      for (int64_t i = 0; i < n; ++i) {
        if (xv[i] > 0.0f) dst[i] += g[i];
      }
      x_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var ConcatCols(std::span<const Var> parts) {
  ATNN_CHECK(!parts.empty());
  const int64_t rows = parts[0].rows();
  int64_t total_cols = 0;
  NodeVector parents;
  parents.reserve(parts.size());
  for (const Var& part : parts) {
    ATNN_CHECK_EQ(part.rows(), rows);
    total_cols += part.cols();
    parents.push_back(part.node());
  }
  Tensor out = ScratchTensorUninit(rows, total_cols);
  int64_t offset = 0;
  for (const Var& part : parts) {
    const Tensor& v = part.value();
    for (int64_t r = 0; r < rows; ++r) {
      std::copy(v.row_ptr(r), v.row_ptr(r) + v.cols(),
                out.row_ptr(r) + offset);
    }
    offset += part.cols();
  }
  auto node = MakeNode(std::move(out), std::move(parents), "concat_cols");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      int64_t offset = 0;
      const int64_t rows = self->grad.rows();
      for (const auto& parent : self->parents) {
        const int64_t cols = parent->value.cols();
        if (parent->requires_grad) {
          parent->EnsureGrad();
          for (int64_t r = 0; r < rows; ++r) {
            const float* g = self->grad.row_ptr(r) + offset;
            float* dst = parent->grad.row_ptr(r);
            for (int64_t c = 0; c < cols; ++c) dst[c] += g[c];
          }
          parent->has_dense_grad = true;
        }
        offset += cols;
      }
    };
  }
  return Var(node);
}

Var ReduceMean(const Var& x) {
  ATNN_CHECK(x.value().numel() > 0);
  Tensor out = ScratchScalar(static_cast<float>(x.value().Mean()));
  auto node = MakeNode(std::move(out), {x.node()}, "reduce_mean");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& x_node = self->parents[0];
      if (!x_node->requires_grad) return;
      x_node->EnsureGrad();
      const float scale =
          self->grad.scalar() / static_cast<float>(x_node->value.numel());
      float* dst = x_node->grad.data();
      const int64_t n = x_node->value.numel();
      for (int64_t i = 0; i < n; ++i) dst[i] += scale;
      x_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var ReduceSum(const Var& x) {
  Tensor out = ScratchScalar(static_cast<float>(x.value().Sum()));
  auto node = MakeNode(std::move(out), {x.node()}, "reduce_sum");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& x_node = self->parents[0];
      if (!x_node->requires_grad) return;
      x_node->EnsureGrad();
      const float g = self->grad.scalar();
      float* dst = x_node->grad.data();
      const int64_t n = x_node->value.numel();
      for (int64_t i = 0; i < n; ++i) dst[i] += g;
      x_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var Square(const Var& x) {
  Tensor out = ScratchCopy(x.value());
  {
    float* dst = out.data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i) dst[i] *= dst[i];
  }
  auto node = MakeNode(std::move(out), {x.node()}, "square");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& x_node = self->parents[0];
      if (!x_node->requires_grad) return;
      x_node->EnsureGrad();
      const float* g = self->grad.data();
      const float* xv = x_node->value.data();
      float* dst = x_node->grad.data();
      const int64_t n = self->grad.numel();
      for (int64_t i = 0; i < n; ++i) dst[i] += 2.0f * g[i] * xv[i];
      x_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var RowwiseDot(const Var& a, const Var& b) {
  ATNN_CHECK(a.value().SameShape(b.value()))
      << a.value().ShapeString() << " vs " << b.value().ShapeString();
  const int64_t rows = a.rows();
  const int64_t cols = a.cols();
  Tensor out = ScratchTensorUninit(rows, 1);
  for (int64_t r = 0; r < rows; ++r) {
    const float* av = a.value().row_ptr(r);
    const float* bv = b.value().row_ptr(r);
    float acc = 0.0f;
    for (int64_t c = 0; c < cols; ++c) acc += av[c] * bv[c];
    out.at(r, 0) = acc;
  }
  auto node = MakeNode(std::move(out), {a.node(), b.node()}, "rowwise_dot");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& a_node = self->parents[0];
      const NodePtr& b_node = self->parents[1];
      const int64_t rows = self->grad.rows();
      const int64_t cols = a_node->value.cols();
      if (a_node->requires_grad) {
        a_node->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          const float g = self->grad.at(r, 0);
          const float* bv = b_node->value.row_ptr(r);
          float* dst = a_node->grad.row_ptr(r);
          for (int64_t c = 0; c < cols; ++c) dst[c] += g * bv[c];
        }
        a_node->has_dense_grad = true;
      }
      if (b_node->requires_grad) {
        b_node->EnsureGrad();
        for (int64_t r = 0; r < rows; ++r) {
          const float g = self->grad.at(r, 0);
          const float* av = a_node->value.row_ptr(r);
          float* dst = b_node->grad.row_ptr(r);
          for (int64_t c = 0; c < cols; ++c) dst[c] += g * av[c];
        }
        b_node->has_dense_grad = true;
      }
    };
  }
  return Var(node);
}

Var RowwiseSum(const Var& x) {
  const int64_t rows = x.rows();
  const int64_t cols = x.cols();
  Tensor out = ScratchTensorUninit(rows, 1);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x.value().row_ptr(r);
    float acc = 0.0f;
    for (int64_t c = 0; c < cols; ++c) acc += row[c];
    out.at(r, 0) = acc;
  }
  auto node = MakeNode(std::move(out), {x.node()}, "rowwise_sum");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& x_node = self->parents[0];
      if (!x_node->requires_grad) return;
      x_node->EnsureGrad();
      for (int64_t r = 0; r < self->grad.rows(); ++r) {
        const float g = self->grad.at(r, 0);
        float* dst = x_node->grad.row_ptr(r);
        for (int64_t c = 0; c < x_node->value.cols(); ++c) dst[c] += g;
      }
      x_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var RowwiseNorm(const Var& x, float eps) {
  const int64_t rows = x.rows();
  const int64_t cols = x.cols();
  Tensor out = ScratchTensorUninit(rows, 1);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x.value().row_ptr(r);
    float acc = 0.0f;
    for (int64_t c = 0; c < cols; ++c) acc += row[c] * row[c];
    out.at(r, 0) = std::sqrt(acc + eps);
  }
  auto node = MakeNode(std::move(out), {x.node()}, "rowwise_norm");
  if (node->requires_grad) {
    node->backward_fn = [](Node* self) {
      const NodePtr& x_node = self->parents[0];
      if (!x_node->requires_grad) return;
      x_node->EnsureGrad();
      const int64_t rows = self->grad.rows();
      const int64_t cols = x_node->value.cols();
      for (int64_t r = 0; r < rows; ++r) {
        const float g = self->grad.at(r, 0);
        const float norm = self->value.at(r, 0);
        const float* xv = x_node->value.row_ptr(r);
        float* dst = x_node->grad.row_ptr(r);
        const float scale = g / norm;
        for (int64_t c = 0; c < cols; ++c) dst[c] += scale * xv[c];
      }
      x_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var CosineSimilarityRows(const Var& a, const Var& b, float eps) {
  Var numerator = RowwiseDot(a, b);
  Var denominator = Mul(RowwiseNorm(a, eps), RowwiseNorm(b, eps));
  return Div(numerator, denominator);
}

Var StopGradient(const Var& x) {
  // Copies the value into a fresh constant leaf detached from the graph.
  return Constant(ScratchCopy(x.value()));
}

Var EmbeddingLookup(const Var& table, std::span<const int64_t> ids) {
  const int64_t vocab = table.rows();
  const int64_t dim = table.cols();
  const auto batch = static_cast<int64_t>(ids.size());
  Tensor out = ScratchTensorUninit(batch, dim);
  for (int64_t r = 0; r < batch; ++r) {
    const int64_t id = ids[static_cast<size_t>(r)];
    ATNN_CHECK(id >= 0 && id < vocab)
        << "embedding id " << id << " out of range [0," << vocab << ")";
    std::copy(table.value().row_ptr(id), table.value().row_ptr(id) + dim,
              out.row_ptr(r));
  }
  auto node = MakeNode(std::move(out), {table.node()}, "embed_lookup");
  if (node->requires_grad) {
    node->saved_ids.assign(ids.begin(), ids.end());
    node->backward_fn = [](Node* self) {
      const NodePtr& table_node = self->parents[0];
      if (!table_node->requires_grad) return;
      table_node->EnsureGrad();
      const int64_t dim = self->grad.cols();
      const auto& ids = self->saved_ids;
      for (size_t r = 0; r < ids.size(); ++r) {
        const int64_t id = ids[r];
        const float* g = self->grad.row_ptr(static_cast<int64_t>(r));
        float* dst = table_node->grad.row_ptr(id);
        for (int64_t c = 0; c < dim; ++c) dst[c] += g[c];
        table_node->touched_rows.push_back(id);
      }
    };
  }
  return Var(node);
}

Var SigmoidBceLossWithLogits(const Var& logits, const Tensor& labels) {
  ATNN_CHECK(logits.value().SameShape(labels))
      << logits.value().ShapeString() << " vs " << labels.ShapeString();
  const int64_t n = logits.value().numel();
  ATNN_CHECK(n > 0);
  // loss_i = max(z,0) - z*y + log(1 + exp(-|z|)) — the standard stable form.
  double total = 0.0;
  const float* z = logits.value().data();
  const float* y = labels.data();
  for (int64_t i = 0; i < n; ++i) {
    const float zi = z[i];
    total += std::max(zi, 0.0f) - zi * y[i] +
             std::log1p(std::exp(-std::abs(zi)));
  }
  Tensor out = ScratchScalar(static_cast<float>(total / n));
  auto node = MakeNode(std::move(out), {logits.node()}, "bce_with_logits");
  if (node->requires_grad) {
    node->saved.push_back(ScratchCopy(labels));
    node->backward_fn = [](Node* self) {
      const NodePtr& z_node = self->parents[0];
      if (!z_node->requires_grad) return;
      z_node->EnsureGrad();
      const float g = self->grad.scalar();
      const int64_t n = z_node->value.numel();
      const float inv_n = 1.0f / static_cast<float>(n);
      const float* z = z_node->value.data();
      const float* y = self->saved[0].data();
      float* dst = z_node->grad.data();
      for (int64_t i = 0; i < n; ++i) {
        const float prob = 1.0f / (1.0f + std::exp(-z[i]));
        dst[i] += g * (prob - y[i]) * inv_n;
      }
      z_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var MseLoss(const Var& pred, const Tensor& target) {
  ATNN_CHECK(pred.value().SameShape(target))
      << pred.value().ShapeString() << " vs " << target.ShapeString();
  const int64_t n = pred.value().numel();
  ATNN_CHECK(n > 0);
  double total = 0.0;
  const float* p = pred.value().data();
  const float* t = target.data();
  for (int64_t i = 0; i < n; ++i) {
    const double diff = static_cast<double>(p[i]) - t[i];
    total += diff * diff;
  }
  Tensor out = ScratchScalar(static_cast<float>(total / n));
  auto node = MakeNode(std::move(out), {pred.node()}, "mse_loss");
  if (node->requires_grad) {
    node->saved.push_back(ScratchCopy(target));
    node->backward_fn = [](Node* self) {
      const NodePtr& p_node = self->parents[0];
      if (!p_node->requires_grad) return;
      p_node->EnsureGrad();
      const float g = self->grad.scalar();
      const int64_t n = p_node->value.numel();
      const float scale = 2.0f * g / static_cast<float>(n);
      const float* p = p_node->value.data();
      const float* t = self->saved[0].data();
      float* dst = p_node->grad.data();
      for (int64_t i = 0; i < n; ++i) dst[i] += scale * (p[i] - t[i]);
      p_node->has_dense_grad = true;
    };
  }
  return Var(node);
}

Var MseBetween(const Var& a, const Var& b) {
  return ReduceMean(Square(Sub(a, b)));
}

}  // namespace atnn::nn
