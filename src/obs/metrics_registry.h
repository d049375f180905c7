#ifndef ATNN_OBS_METRICS_REGISTRY_H_
#define ATNN_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace atnn::obs {

/// Number of independent atomic cells each metric spreads its writes over.
/// Threads are assigned shards round-robin at first use, so with <= 16
/// recording threads every thread owns a private cache line and recording
/// never contends; beyond that, contention degrades gracefully to shared
/// relaxed atomics instead of a lock.
inline constexpr size_t kNumShards = 16;

/// Stable per-thread shard slot in [0, kNumShards).
size_t ShardIndex();

/// Monotonic event counter. Increment() is lock-free and wait-free on the
/// fast path: one relaxed fetch_add on this thread's shard cell. Value()
/// sums the shards — reads are eventually consistent with respect to
/// in-flight increments (telemetry semantics, not a synchronization
/// primitive).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    cells_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t Value() const;

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> value{0};
  };
  std::array<Cell, kNumShards> cells_;
};

/// Last-writer-wins instantaneous value (queue depth, current epoch loss,
/// arena high-water mark). A single relaxed atomic store: sharding would
/// make "the" current value ambiguous, and a store never contends the way
/// a read-modify-write does.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// Relaxed CAS-loop add for accumulating gauges. Lock-free.
  void Add(double delta);
  /// Relaxed CAS-loop raise-to-at-least: keeps the largest value ever
  /// observed (high-water marks like arena peak bytes). Lock-free.
  void Max(double value);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Sharded log2 histogram. Record() touches only this thread's shard:
/// one relaxed fetch_add per bucket/count, a relaxed CAS loop for the
/// max — lock-free, no mutex anywhere in the call chain. Record(value, n)
/// lands n samples of one value at the cost of one, so a caller answering
/// a run of requests with one latency records the run once. Snapshot()
/// folds the shards into a LogHistogram view; a snapshot taken while
/// writers are active may see a record's bucket increment before its
/// count (or vice versa) — fine for telemetry, never torn memory.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = LogHistogram::kNumBuckets;

  /// Records `count` samples of `value`: the snapshot is that of `count`
  /// calls of Record(value), except that the sum gains value * count in
  /// one rounding. A NaN adds `count` to invalid(); count <= 0 records
  /// nothing.
  void Record(double value, int64_t count = 1);

  LogHistogram Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<int64_t>, kNumBuckets> buckets{};
    std::atomic<int64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
    std::atomic<int64_t> invalid{0};
  };
  std::array<Shard, kNumShards> shards_;
};

/// One metric family collected out of a registry.
struct MetricsSnapshot {
  /// Name -> value, sorted by name (std::map iteration order), so exports
  /// are deterministic and diffable.
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, LogHistogram>> histograms;
};

/// Moves every metric of `from` into `into` with `prefix` prepended to its
/// name. Used by aggregating collectors (sharded runtime, tenant registry,
/// shard supervisor) to build one tree out of per-component registries.
/// Does NOT re-sort `into`; call SortByName once after the last merge.
void MergeWithPrefix(const std::string& prefix, MetricsSnapshot from,
                     MetricsSnapshot* into);

/// Restores the sorted-by-name contract after MergeWithPrefix calls —
/// concatenated namespaces are not globally ordered (e.g. "shard10." <
/// "shard2." lexicographically, and a '.'-separator sorts after '-').
void SortByName(MetricsSnapshot* snapshot);

/// Owner and namespace for a set of metrics. Get*() registers on first use
/// (under a mutex — do this at setup, not per event) and returns a handle
/// that stays valid for the registry's lifetime; recording through a
/// handle is lock-free (see Counter/Gauge/Histogram). Collect() aggregates
/// everything into a MetricsSnapshot.
///
/// Instantiate one per subsystem that needs isolated numbers (each
/// InferenceRuntime owns one via RuntimeStats).
///
/// mutex_acquisitions() counts every time the registry mutex was taken —
/// registration and Collect only. The lock-free claim, measured: it must
/// not move while recording, as MetricsRegistryTest.
/// RecordingNeverTakesTheRegistryMutex and RuntimeStatsTest.
/// RecordingIsLockFreeOnTheRegistry assert, nor during serving, as
/// InferenceRuntimeTest.HotSwapChurnDropsNothingAndScoresConsistently,
/// InferenceRuntimeTest.InjectedFaultsDegradeEveryResponseCleanly and every
/// perfbench run assert.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Collect() const;

  /// Total registry-mutex acquisitions so far (registration + Collect).
  /// Recording through handles never contributes.
  int64_t mutex_acquisitions() const {
    return mutex_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_lock<std::mutex> Lock() const;

  mutable std::mutex mutex_;
  mutable std::atomic<int64_t> mutex_acquisitions_{0};
  // unique_ptr values: handles must stay pinned while the maps rehash.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// RAII timer feeding a pre-resolved histogram: construction stamps the
/// clock, destruction records the elapsed microseconds. The hot-path
/// primitive — resolve the Histogram once at setup (GetHistogram takes the
/// registry mutex), then a ScopedTimer per event is clock reads plus a
/// lock-free Record.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (sink_ != nullptr) sink_->Record(ElapsedUs());
  }

  double ElapsedUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// Detaches the sink: nothing is recorded at destruction (e.g. the timed
  /// operation failed and its latency would pollute the distribution).
  void Cancel() { sink_ = nullptr; }

 private:
  Histogram* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace atnn::obs

#endif  // ATNN_OBS_METRICS_REGISTRY_H_
