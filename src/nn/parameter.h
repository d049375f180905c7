#ifndef ATNN_NN_PARAMETER_H_
#define ATNN_NN_PARAMETER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "nn/autograd.h"

namespace atnn::nn {

/// A named, trainable tensor. The underlying graph node is long-lived:
/// every training step builds fresh op nodes on top of the same parameter
/// leaves, and optimizers mutate `value()` in place.
///
/// A Parameter owns its node, so a copy is deep: a new leaf with the same
/// name and an owning copy of the value, and no gradient. (A `Var` copy,
/// by contrast, aliases the same node.) Layers and models built from
/// Parameters copy the same way, which is how a trained model is published
/// without aliasing the one a training loop keeps mutating.
class Parameter {
 public:
  Parameter() = default;
  Parameter(std::string name, Tensor value);

  Parameter(const Parameter& other);
  Parameter& operator=(const Parameter&) = delete;
  // Declared so containers growing during construction move, not copy.
  Parameter(Parameter&&) noexcept = default;
  Parameter& operator=(Parameter&&) noexcept = default;

  const std::string& name() const { return name_; }

  const Tensor& value() const { return node_->value; }
  Tensor& value() { return node_->value; }

  const Tensor& grad() const { return node_->grad; }

  /// Graph handle for use in forward passes.
  Var var() const { return Var(node_); }

  Node* node() const { return node_.get(); }

  int64_t rows() const { return node_->value.rows(); }
  int64_t cols() const { return node_->value.cols(); }
  int64_t numel() const { return node_->value.numel(); }

 private:
  std::string name_;
  NodePtr node_;
};

/// Anything owning parameters. Composite modules forward the call to their
/// children; the flattened list feeds optimizers and snapshots.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends pointers to every parameter owned (transitively) by this
  /// module. Pointers stay valid for the module's lifetime.
  virtual void CollectParameters(std::vector<Parameter*>* out) = 0;

  /// Convenience wrapper over CollectParameters.
  std::vector<Parameter*> Parameters() {
    std::vector<Parameter*> result;
    CollectParameters(&result);
    return result;
  }

  /// Total scalar count across all parameters.
  int64_t NumParameterElements();
};

/// Zeroes the gradient buffers of every parameter (sparse-aware). Use when
/// several optimizers share a model and stray gradients from one half-step
/// must not leak into the next (e.g. GAN-style alternating updates).
void ZeroAllGrads(const std::vector<Parameter*>& params);

/// Serializes parameters as (name, shape, data) records. Names must be
/// unique within one snapshot.
void SaveParameters(const std::vector<Parameter*>& params, BinaryWriter* writer);

/// Restores parameters saved by SaveParameters. Every parameter in `params`
/// must be present in the snapshot exactly once with a matching shape;
/// extra snapshot entries are an error (catches architecture drift), and so
/// are bytes after the last record. All or nothing: on any error no
/// parameter has changed.
Status LoadParameters(const std::vector<Parameter*>& params,
                      BinaryReader* reader);

/// Copies values src[i] -> dst[i]. The lists must align pairwise in name
/// and shape — CollectParameters emits a structural order, so two models
/// built from the same schemas + config align exactly. Gradients and any
/// optimizer state attached to dst are untouched; this is the streaming
/// trainer's warm start into a model that already exists. To publish a
/// copy, copy-construct the model instead.
Status CopyParameterValues(const std::vector<Parameter*>& src,
                           const std::vector<Parameter*>& dst);

}  // namespace atnn::nn

#endif  // ATNN_NN_PARAMETER_H_
