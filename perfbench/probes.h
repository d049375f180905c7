#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Traced-run probes: after the workload, call core, nn, data and the
// trainer directly with the rows and batch sizes the workload formed, and
// time each call.

#include <cstdint>
#include <vector>

#include "bench.h"
#include "obs/metrics_registry.h"
#include "world.h"

namespace atnn::perfbench {

struct ProbeInputs {
  const World* world = nullptr;
  const core::AtnnModel* model = nullptr;
  const core::PopularityPredictor* predictor = nullptr;
  /// Rows the workload scored, in the order it scored them.
  std::vector<int64_t> rows;
  /// Mean rows per forward batch the runtime formed.
  double batch_rows_mean = 0.0;
  /// The live trainer's registry (train.step_us), or null to time a short
  /// training run of a copy of `model` instead.
  const obs::MetricsRegistry* train_registry = nullptr;
  uint64_t seed = 1;
};

/// Emits core.*, nn.gemm_gflops, data.ctr_batch_us and train.step_* as
/// per-layer metrics and prints the per-shape GEMM table.
void RunProbes(const ProbeInputs& inputs, Tracer* tracer, Report* report);

}  // namespace atnn::perfbench

#endif  // PERFBENCH_PROBES_H_
