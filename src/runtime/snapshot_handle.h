#ifndef ATNN_RUNTIME_SNAPSHOT_HANDLE_H_
#define ATNN_RUNTIME_SNAPSHOT_HANDLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "core/atnn.h"
#include "core/popularity.h"
#include "data/schema.h"
#include "nn/ir/plan.h"
#include "quant/quantized_generator.h"

namespace atnn::runtime {

/// Everything one published model version needs to answer popularity
/// queries: the trained ATNN (generator path), the precomputed mean-user
/// vector (core::PopularityPredictor), and the item-profile feature table
/// keyed by item row. All members are immutable once published — workers
/// may run concurrent forward passes against the same snapshot because
/// inference never mutates graph leaves (see DESIGN.md, "Serving runtime").
///
/// Members are shared_ptrs so a snapshot can outlive its publisher: a
/// worker mid-batch keeps the whole version alive through its Acquire()'d
/// reference even after a newer version is published.
struct ServingSnapshot {
  std::shared_ptr<const core::AtnnModel> model;
  std::shared_ptr<const core::PopularityPredictor> predictor;
  std::shared_ptr<const data::EntityTable> item_profiles;
  /// Optional low-precision generator (int8/bf16, DESIGN.md §15). When set,
  /// the plan is lowered from it instead of compiled from `model`, which
  /// may then be null — a serving process never needs the fp32 weights
  /// resident. Cluster slicing (PublishSlices) copies the snapshot struct
  /// per shard, so every shard shares this one artifact by reference.
  std::shared_ptr<const quant::QuantizedGenerator> quantized;
  /// Compiled execution plan of the generator forward (nn/ir, DESIGN.md
  /// §16): the executor of every cache miss, whatever the precision.
  /// Attached at publish by AttachServingPlan; cluster publication builds
  /// it once and shares it across shard slices (the plan closes over the
  /// weights, not the item table).
  std::shared_ptr<const nn::ir::CompiledPlan> plan;
  /// Free-form checkpoint label (e.g. the snapshot file it was loaded from).
  std::string tag;
  /// Assigned by SnapshotHandle::Publish; 0 means "never published".
  uint64_t version = 0;
};

/// Structural and numerical integrity check run by InferenceRuntime before
/// a snapshot becomes the serving version:
///   - model or quantized present; predictor and item_profiles
///     non-null                                         (InvalidArgument)
///   - mean-user vector width matches the scoring path's vector_dim
///                                                      (InvalidArgument)
///   - NaN/Inf sweep over the mean-user vector and every generator-path
///     parameter                                        (DataLoss)
///   - quantized (when present): shape consistency and a finite/nonzero
///     sweep over every quantization scale              (DataLoss)
/// A snapshot that fails here is never published — the previous version
/// keeps serving. The sweep touches each generator weight once (a few MB
/// at most), which is noise next to the model load that preceded it.
Status ValidateServingSnapshot(const ServingSnapshot& snapshot);

/// Attaches the CompiledPlan that serves every cache miss of the snapshot,
/// for batches of up to `max_batch` rows: the quantized artifact lowered
/// (quant::CompileQuantizedPlan) when the snapshot carries one, even beside
/// the fp32 model, else the fp32 generator compiled
/// (core::CompileGeneratorPlan). Either build first checks that the plan
/// can read the item table (core::CompileGeneratorSpec): an empty table is
/// FailedPrecondition; another categorical field count, a vocab past its
/// table or another numeric width is InvalidArgument. An attached plan is
/// kept, and the table not re-checked (the sharded front-end builds once
/// over the full catalog and shares the plan across slices), unless its
/// ceiling is below `max_batch`: InvalidArgument. A failed build returns
/// its Status and the snapshot must be rejected. Call after
/// ValidateServingSnapshot succeeded.
Status AttachServingPlan(int64_t max_batch, ServingSnapshot* snapshot);

/// Wraps a T owned by the caller in a non-owning shared_ptr (aliasing
/// constructor with an empty control block). Used by examples/tools whose
/// model and feature tables live on the stack for the whole process; the
/// caller must keep `ptr` alive for as long as any snapshot references it.
template <typename T>
std::shared_ptr<const T> Unowned(const T* ptr) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), ptr);
}

/// RCU-style publication point for model hot-swap. Readers Acquire() an
/// immutable snapshot and hold it for the duration of one micro-batch;
/// Publish() atomically replaces the current version and assigns it the
/// next monotonically increasing version number. In-flight batches finish
/// on the version they acquired — nothing is dropped or torn during a swap,
/// and the old version is freed when its last reader releases it.
///
/// The critical section is a single shared_ptr copy/swap under a mutex, so
/// readers never block on model loading: publishers fully construct the new
/// snapshot *before* calling Publish.
class SnapshotHandle {
 public:
  SnapshotHandle() = default;

  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  /// Current snapshot, or nullptr if nothing has been published yet.
  std::shared_ptr<const ServingSnapshot> Acquire() const;

  /// Publishes `snapshot` as the new current version and returns the
  /// version number assigned to it (1, 2, 3, ...).
  uint64_t Publish(ServingSnapshot snapshot);

  /// Version of the currently published snapshot (0 before first Publish).
  uint64_t version() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const ServingSnapshot> current_;
  uint64_t version_ = 0;
};

}  // namespace atnn::runtime

#endif  // ATNN_RUNTIME_SNAPSHOT_HANDLE_H_
