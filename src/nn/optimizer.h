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
/// rather than vocabulary size. A nonzero weight_decay applies *decoupled*
/// decay (AdamW, Loshchilov & Hutter): the pre-step parameter shrinks by
/// learning_rate * weight_decay before the Adam step is subtracted (touched
/// rows only for sparse parameters).
class Adam {
 public:
  Adam(std::vector<Parameter*> params, float learning_rate,
       float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f,
       float weight_decay = 0.0f);

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

  float learning_rate() const { return learning_rate_; }
  void set_learning_rate(float lr) { learning_rate_ = lr; }
  int64_t step_count() const { return step_; }

 private:
  /// Sorted, deduplicated touched rows for a sparse-grad parameter. The
  /// returned reference points at a reused member buffer (so steady-state
  /// steps allocate nothing); it is invalidated by the next call.
  const std::vector<int64_t>& UniqueTouchedRows(const Node& node);

  std::vector<Parameter*> params_;
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  float weight_decay_;
  int64_t step_ = 0;
  std::vector<Tensor> first_moment_;
  std::vector<Tensor> second_moment_;
  std::vector<int64_t> touched_scratch_;
};

}  // namespace atnn::nn

#endif  // ATNN_NN_OPTIMIZER_H_
