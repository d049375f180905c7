#ifndef ATNN_CORE_TRAIN_TELEMETRY_H_
#define ATNN_CORE_TRAIN_TELEMETRY_H_

#include <chrono>
#include <iostream>
#include <span>
#include <string>
#include <utility>

#include "nn/arena.h"
#include "obs/exporter.h"
#include "obs/metrics_registry.h"

namespace atnn::core {

/// Instrumentation of RunEpochs, the loop of every trainer. All handles are
/// resolved up front, so the per-step cost is one lock-free counter
/// increment plus one histogram record (via ScopedTimer on step_sink());
/// per-epoch work (gauge lookups, the optional JSON line) may take the
/// registry mutex — epochs are coarse enough not to care.
///
/// Metric names: counter `train.steps`, histograms `train.step_us` /
/// `train.epoch_ms`, gauges `train.epoch`, `train.arena_high_water_bytes`,
/// and one `train.<loss>` gauge per loss the caller reports.
class TrainTelemetry {
 public:
  TrainTelemetry(obs::MetricsRegistry* registry, bool emit_lines)
      : registry_(registry), emit_lines_(emit_lines) {
    if (registry_ == nullptr) return;
    steps_ = &registry_->GetCounter("train.steps");
    step_us_ = &registry_->GetHistogram("train.step_us");
    epoch_ms_ = &registry_->GetHistogram("train.epoch_ms");
    epoch_ = &registry_->GetGauge("train.epoch");
    arena_high_water_ = &registry_->GetGauge("train.arena_high_water_bytes");
  }

  /// Sink for per-step ScopedTimers; null when telemetry is disabled
  /// (ScopedTimer treats a null sink as "record nothing").
  obs::Histogram* step_sink() const { return step_us_; }

  void RecordStep() {
    if (steps_ != nullptr) steps_->Increment();
  }

  /// Epoch bookkeeping: `epoch_index` is 0-based (exported 1-based, so the
  /// gauge reads as "epochs finished"), `losses` are this epoch's averaged
  /// values. With emit_lines, prints one machine-readable line:
  ///   ATNN_METRICS {"ts_ms":...,...}
  void EndEpoch(int epoch_index, double epoch_ms,
                std::span<const std::pair<const char*, double>> losses) {
    if (registry_ == nullptr) return;
    epoch_->Set(static_cast<double>(epoch_index + 1));
    epoch_ms_->Record(epoch_ms);
    arena_high_water_->Set(
        static_cast<double>(nn::ThreadArena().HighWaterMark()));
    for (const auto& [name, value] : losses) {
      registry_->GetGauge(std::string("train.") + name).Set(value);
    }
    if (emit_lines_) {
      std::cout << "ATNN_METRICS " << obs::ToJsonLine(registry_->Collect())
                << std::endl;
    }
  }

  /// Microseconds-resolution wall clock for epoch timing.
  static std::chrono::steady_clock::time_point Now() {
    return std::chrono::steady_clock::now();
  }
  static double MsSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Now() - start).count();
  }

 private:
  obs::MetricsRegistry* registry_;
  bool emit_lines_;
  obs::Counter* steps_ = nullptr;
  obs::Histogram* step_us_ = nullptr;
  obs::Histogram* epoch_ms_ = nullptr;
  obs::Gauge* epoch_ = nullptr;
  obs::Gauge* arena_high_water_ = nullptr;
};

}  // namespace atnn::core

#endif  // ATNN_CORE_TRAIN_TELEMETRY_H_
