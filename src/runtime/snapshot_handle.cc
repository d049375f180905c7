#include "runtime/snapshot_handle.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/generator_plan.h"

namespace atnn::runtime {

namespace {

/// Index of the first non-finite element, or -1 when all values are finite.
int64_t FirstNonFinite(const float* data, int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    if (!std::isfinite(data[i])) return i;
  }
  return -1;
}

}  // namespace

Status ValidateServingSnapshot(const ServingSnapshot& snapshot) {
  if (snapshot.model == nullptr && snapshot.quantized == nullptr) {
    return Status::InvalidArgument(
        "snapshot has neither a model nor a quantized generator");
  }
  if (snapshot.predictor == nullptr) {
    return Status::InvalidArgument("snapshot.predictor is null");
  }
  if (snapshot.item_profiles == nullptr) {
    return Status::InvalidArgument("snapshot.item_profiles is null");
  }
  // The quantized artifact, when present, is the one the plan is lowered
  // from, so its vector_dim is the one the mean-user vector must match.
  const int64_t vector_dim = snapshot.quantized != nullptr
                                 ? snapshot.quantized->vector_dim()
                                 : snapshot.model->vector_dim();
  const nn::Tensor& mean = snapshot.predictor->mean_user_vector();
  if (mean.cols() != vector_dim) {
    return Status::InvalidArgument(
        "mean-user vector width " + std::to_string(mean.cols()) +
        " does not match model vector_dim " + std::to_string(vector_dim));
  }
  if (FirstNonFinite(mean.data(), mean.numel()) >= 0) {
    return Status::DataLoss("mean-user vector contains NaN/Inf");
  }
  if (!std::isfinite(snapshot.predictor->bias())) {
    return Status::DataLoss("predictor bias is NaN/Inf");
  }
  if (snapshot.quantized != nullptr) {
    ATNN_RETURN_IF_ERROR(snapshot.quantized->Validate());
  }
  if (snapshot.model != nullptr) {
    // GeneratorParameters() only appends pointers — the const_cast never
    // mutates the model, it bridges the Module interface being non-const.
    auto* model = const_cast<core::AtnnModel*>(snapshot.model.get());
    for (const nn::Parameter* param : model->GeneratorParameters()) {
      const nn::Tensor& value = param->value();
      const int64_t bad = FirstNonFinite(value.data(), value.numel());
      if (bad >= 0) {
        return Status::DataLoss("generator parameter '" + param->name() +
                                "' contains NaN/Inf at element " +
                                std::to_string(bad));
      }
    }
  }
  return Status::OK();
}

Status AttachServingPlan(int64_t max_batch, ServingSnapshot* snapshot) {
  if (snapshot->plan == nullptr && snapshot->quantized != nullptr) {
    ATNN_ASSIGN_OR_RETURN(
        snapshot->plan,
        quant::CompileQuantizedPlan(*snapshot->quantized,
                                    *snapshot->item_profiles, max_batch,
                                    snapshot->quantized));
  } else if (snapshot->plan == nullptr) {
    ATNN_ASSIGN_OR_RETURN(
        snapshot->plan,
        core::CompileGeneratorPlan(*snapshot->model, *snapshot->item_profiles,
                                   max_batch, snapshot->model));
  } else if (snapshot->plan->max_batch() < max_batch) {
    return Status::InvalidArgument(
        "attached plan serves batches of up to " +
        std::to_string(snapshot->plan->max_batch()) + " rows, below the " +
        std::to_string(max_batch) + "-row batch ceiling");
  }
  return Status::OK();
}

std::shared_ptr<const ServingSnapshot> SnapshotHandle::Acquire() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

uint64_t SnapshotHandle::Publish(ServingSnapshot snapshot) {
  auto owned = std::make_shared<ServingSnapshot>(std::move(snapshot));
  std::lock_guard<std::mutex> lock(mutex_);
  owned->version = ++version_;
  current_ = std::move(owned);
  return version_;
}

uint64_t SnapshotHandle::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

}  // namespace atnn::runtime
