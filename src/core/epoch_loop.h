#ifndef ATNN_CORE_EPOCH_LOOP_H_
#define ATNN_CORE_EPOCH_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/train_telemetry.h"
#include "core/trainer.h"
#include "nn/arena.h"
#include "nn/autograd.h"
#include "nn/optimizer.h"
#include "obs/metrics_registry.h"

namespace atnn::core {

/// A trainer's averaged epoch losses by name. Each becomes a `train.<name>`
/// gauge and a ` name=value` field of the verbose epoch log line.
using EpochLosses = std::vector<std::pair<const char*, double>>;

/// The global L2 norm every update clips its group's gradients to.
inline constexpr double kClipNorm = 5.0;

/// update(g, objective): zero every group's gradients, backpropagate
/// `objective`, clip group g's gradients to kClipNorm and step its Adam. A
/// G-step backward also deposits gradients into discriminator parameters,
/// so zeroing everything keeps half-steps from leaking.
using GroupUpdate =
    std::function<void(size_t group, const nn::Var& objective)>;

/// What one trainer plugs into RunEpochs.
template <typename Batch>
struct EpochSteps {
  /// Label of the verbose log line and of the empty-input warning.
  const char* name;
  /// Parameter groups; RunEpochs builds one Adam per group.
  std::vector<std::vector<nn::Parameter*>> groups;
  /// Gathers the batch of a span of row ids.
  std::function<Batch(std::span<const int64_t>)> make_batch;
  /// One mini-batch: forwards, one update(group, objective) per half-step,
  /// and the trainer's own loss sums.
  std::function<void(const Batch&, const GroupUpdate&)> step;
  /// Averages the sums over the epoch's `steps` batches, appends the history
  /// row, resets the sums and names the losses to report.
  std::function<EpochLosses(int64_t steps)> end_epoch;
};

/// The mini-batch epoch policy every trainer shares. It validates `options`
/// (aborting with "invalid TrainOptions"; the StreamingTrainer checks first
/// and returns the Status instead), returns at once with a warning when
/// `rows` is empty, and otherwise runs options.epochs epochs. Each epoch
/// reshuffles a copy of `rows` with the one Rng(options.seed), cuts
/// MakeBatchSpans batches, gathers each one, and runs every step under a
/// step timer and an arena scope.
/// Telemetry and the verbose log close each epoch.
template <typename Batch>
void RunEpochs(std::span<const int64_t> rows, const TrainOptions& options,
               const EpochSteps<Batch>& trainer) {
  const Status valid = options.Validate();
  ATNN_CHECK(valid.ok()) << "invalid TrainOptions: " << valid.ToString();
  if (rows.empty()) {
    ATNN_LOG(Warning) << trainer.name << ": no training rows, nothing to "
                         "do; returning empty history";
    return;
  }
  std::vector<std::unique_ptr<nn::Adam>> optimizers;
  for (const std::vector<nn::Parameter*>& group : trainer.groups) {
    optimizers.push_back(
        std::make_unique<nn::Adam>(group, options.learning_rate));
  }
  const GroupUpdate update = [&](size_t group, const nn::Var& objective) {
    for (const auto& optimizer : optimizers) optimizer->ZeroGrad();
    nn::Backward(objective);
    optimizers[group]->ClipGradNorm(kClipNorm);
    optimizers[group]->Step();
  };

  Rng rng(options.seed);
  std::vector<int64_t> order(rows.begin(), rows.end());
  TrainTelemetry telemetry(options.metrics, options.emit_metric_lines);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const auto epoch_start = TrainTelemetry::Now();
    rng.Shuffle(&order);
    const std::vector<std::span<const int64_t>> batches =
        MakeBatchSpans(order, options.batch_size);
    for (const std::span<const int64_t> batch_rows : batches) {
      const Batch batch = trainer.make_batch(batch_rows);
      const obs::ScopedTimer step_timer(telemetry.step_sink());
      telemetry.RecordStep();
      // Step-scoped tensors (graph nodes, activations, gradients of
      // non-parameters) come from the thread arena and are released in one
      // rewind here; after the first few steps grow the arena, a step
      // performs no heap allocations.
      const nn::ArenaScope arena_scope;
      trainer.step(batch, update);
    }
    const EpochLosses losses =
        trainer.end_epoch(static_cast<int64_t>(batches.size()));
    telemetry.EndEpoch(epoch, TrainTelemetry::MsSince(epoch_start), losses);
    if (options.verbose) {
      std::ostringstream line;
      line << trainer.name << " epoch " << epoch + 1 << "/" << options.epochs;
      for (const auto& [name, value] : losses) {
        line << " " << name << "=" << value;
      }
      ATNN_LOG(Info) << line.str();
    }
  }
}

}  // namespace atnn::core

#endif  // ATNN_CORE_EPOCH_LOOP_H_
