#ifndef ATNN_NN_OPTIMIZER_H_
#define ATNN_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "nn/parameter.h"

namespace atnn::nn {

/// Adam (Kingma & Ba), the optimizer every trainer steps. It understands
/// sparse gradients: when a parameter received only scatter-add
/// contributions (embedding tables), only the touched rows are updated and
/// only their slots of the moments advance ("lazy" updates, as in
/// TensorFlow's LazyAdam), with the global step count used for bias
/// correction. This keeps per-step cost proportional to batch traffic
/// rather than vocabulary size. The moment decay rates and the denominator
/// guard are fixed at Kingma & Ba's defaults: beta1 = 0.9, beta2 = 0.999,
/// epsilon = 1e-8 (optimizer.cc).
class Adam {
 public:
  Adam(std::vector<Parameter*> params, float learning_rate);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update from the accumulated gradients.
  void Step();

  /// Clears gradients of all managed parameters (sparse-aware).
  void ZeroGrad();

  /// Rescales all gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm. Sparse gradients contribute only their
  /// touched rows.
  double ClipGradNorm(double max_norm);

  int64_t step_count() const { return step_; }

 private:
  /// Sorted, deduplicated touched rows for a sparse-grad parameter. The
  /// returned reference points at a reused member buffer (so steady-state
  /// steps allocate nothing); it is invalidated by the next call.
  const std::vector<int64_t>& UniqueTouchedRows(const Node& node);

  std::vector<Parameter*> params_;
  float learning_rate_;
  int64_t step_ = 0;
  std::vector<Tensor> first_moment_;
  std::vector<Tensor> second_moment_;
  std::vector<int64_t> touched_scratch_;
};

}  // namespace atnn::nn

#endif  // ATNN_NN_OPTIMIZER_H_
