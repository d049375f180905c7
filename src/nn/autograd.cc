#include "nn/autograd.h"

#include <atomic>


namespace atnn::nn {

void Node::EnsureGrad() {
  if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
    // Parameter gradients must survive until the optimizer step (and their
    // buffer is reused across steps); op-node gradients die with the step.
    grad = is_parameter ? Tensor(value.rows(), value.cols())
                        : ScratchTensor(value.rows(), value.cols());
  }
}

void Node::ZeroGrad() {
  if (grad.empty()) return;
  if (IsSparseGrad() &&
      static_cast<int64_t>(touched_rows.size()) < grad.rows()) {
    for (int64_t row : touched_rows) {
      float* ptr = grad.row_ptr(row);
      for (int64_t c = 0; c < grad.cols(); ++c) ptr[c] = 0.0f;
    }
  } else {
    grad.SetZero();
  }
  touched_rows.clear();
  has_dense_grad = false;
}

void Node::AccumulateGrad(const Tensor& contribution) {
  EnsureGrad();
  grad.AddInPlace(contribution);
  has_dense_grad = true;
}

NodePtr AllocateNode() {
  return std::allocate_shared<Node>(ArenaStdAllocator<Node>{});
}

namespace {

thread_local bool t_grad_mode_enabled = true;

}  // namespace

bool GradModeEnabled() { return t_grad_mode_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_mode_enabled) {
  t_grad_mode_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_mode_enabled = previous_; }

Var Constant(Tensor value) {
  NodePtr node = AllocateNode();
  node->value = std::move(value);
  node->requires_grad = false;
  return Var(std::move(node));
}

Var Leaf(Tensor value) {
  NodePtr node = AllocateNode();
  node->value = std::move(value);
  node->requires_grad = true;
  return Var(std::move(node));
}

namespace {

struct Frame {
  Node* node;
  size_t next_parent;
};

// Reused across Backward calls so a steady-state training step performs no
// traversal allocations (the vectors keep their capacity). Thread-local:
// concurrent Backward over DISJOINT graphs is fine; sharing differentiable
// nodes across threads was never supported.
thread_local std::vector<Node*> t_topo_order;
thread_local std::vector<Frame> t_dfs_stack;

uint64_t NextTopoMark() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Iterative post-order DFS producing a topological order (parents before
// children in the returned list; we traverse it in reverse for backprop).
// Visited-tracking uses per-node epoch stamps instead of a hash set.
void TopologicalOrder(const NodePtr& root, std::vector<Node*>* order) {
  const uint64_t mark = NextTopoMark();
  std::vector<Frame>& stack = t_dfs_stack;
  stack.clear();
  if (root->requires_grad) {
    stack.push_back({root.get(), 0});
    root->topo_mark = mark;
  }
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      Node* parent = top.node->parents[top.next_parent].get();
      ++top.next_parent;
      if (parent->requires_grad && parent->topo_mark != mark) {
        parent->topo_mark = mark;
        stack.push_back({parent, 0});
      }
    } else {
      order->push_back(top.node);
      stack.pop_back();
    }
  }
}

void BackwardImpl(const Var& root, const Tensor* seed) {
  ATNN_CHECK(root.defined());
  ATNN_CHECK(root.requires_grad())
      << "Backward on a graph with no differentiable leaves";
  if (seed != nullptr) {
    ATNN_CHECK(root.value().SameShape(*seed))
        << "seed shape " << seed->ShapeString() << " vs root "
        << root.value().ShapeString();
  }

  std::vector<Node*>& order = t_topo_order;
  order.clear();
  TopologicalOrder(root.node(), &order);

  // Ensure buffers exist before any accumulation.
  for (Node* node : order) node->EnsureGrad();
  if (seed != nullptr) {
    root.node()->grad.AddInPlace(*seed);
  } else {
    // Seed with ones without materializing a ones tensor.
    Tensor& grad = root.node()->grad;
    float* data = grad.data();
    const int64_t n = grad.numel();
    for (int64_t i = 0; i < n; ++i) data[i] += 1.0f;
  }

  // order is post-order (leaves first); walk from the root backwards.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn) node->backward_fn(node);
  }
}

}  // namespace

void Backward(const Var& root, const Tensor& seed) {
  BackwardImpl(root, &seed);
}

void Backward(const Var& root) { BackwardImpl(root, nullptr); }

}  // namespace atnn::nn
