#ifndef ATNN_CLUSTER_SHARD_SUPERVISOR_H_
#define ATNN_CLUSTER_SHARD_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/sharded_runtime.h"
#include "obs/metrics_registry.h"

namespace atnn::cluster {

/// Health verdict the supervisor holds for one shard:
///
///   kHealthy ──(kConsecutiveToSuspect consecutive failed probes)──> kSuspect
///   kSuspect ──(one healthy probe)──> kHealthy
///   kSuspect ──(kConsecutiveToDead total consecutive failures)──> kDead
///   kDead ──(rebuild from the last published snapshot)──> kRecovering
///   kRecovering ──(kProbesToHealthy consecutive healthy probes)──> kHealthy
///   kRecovering ──(kConsecutiveToDead consecutive failures again)──> kDead
///
/// A probe is healthy only when the shard answers inside the deadline AND
/// serves fresh (ProbeReport::healthy): a shard limping along on its
/// degraded fallback chain is suspect, not fine.
enum class ShardHealth { kHealthy = 0, kSuspect = 1, kDead = 2,
                         kRecovering = 3 };

const char* ShardHealthToString(ShardHealth health);

/// Health supervisor for a ShardedRuntime: probes every shard with seeded
/// synthetic requests, tracks per-shard EWMA probe latency and consecutive
/// failures, walks the health state machine above, and auto-rebuilds dead
/// shards from the last validated snapshot slice. A rebuilt shard is
/// re-admitted only after passing probes — RebuildShard force-opens the
/// shard's circuit breaker, and only the supervisor's continued probe
/// traffic can close it again.
///
/// Drive it either way:
///   - Start()/Stop(): a background thread runs one probe round per
///     kProbePeriod — the serving-binary mode.
///   - Step(): one synchronous probe round — the deterministic test mode
///     (also what the background thread calls).
///
/// Resize-aware: each round re-reads the runtime's shard count and grows
/// or truncates its health table, so a live ResizeShards needs no
/// supervisor coordination.
///
/// Thread-safe; Step() may race Start()'s thread harmlessly (rounds
/// serialize on an internal mutex).
class ShardSupervisor {
 public:
  /// Background cadence of Run(): one probe round per period.
  static constexpr std::chrono::milliseconds kProbePeriod{5};
  /// Consecutive probe failures before healthy -> suspect.
  static constexpr int kConsecutiveToSuspect = 2;
  /// Consecutive probe failures before suspect -> dead, counted from the
  /// first failure.
  static constexpr int kConsecutiveToDead = 4;
  /// Consecutive healthy probes before recovering -> healthy.
  static constexpr int kProbesToHealthy = 3;
  /// EWMA smoothing for the per-shard probe latency estimate.
  static constexpr double kLatencyEwmaAlpha = 0.2;

  /// `runtime` must outlive the supervisor. `seed` picks the probe rows.
  ShardSupervisor(ShardedRuntime* runtime, uint64_t seed);

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Stops the background thread (Stop()).
  ~ShardSupervisor();

  /// Launches the background probe loop. Idempotent.
  void Start();
  /// Joins the background probe loop. Idempotent; safe without Start().
  void Stop();

  /// One probe round over every shard: probe, update health, rebuild the
  /// dead. Returns the number of shards probed.
  size_t Step();

  ShardHealth health(size_t shard) const;
  /// EWMA probe latency, microseconds; 0 until the first probe lands.
  double probe_latency_us(size_t shard) const;

  /// supervisor.* metrics: probes, probe_failures, transitions (one per
  /// state change), rebuilds, rebuild_failures, plus gauges
  /// supervisor.healthy_shards and supervisor.dead_shards.
  obs::MetricsSnapshot Collect() const;

 private:
  struct ShardState {
    ShardHealth health = ShardHealth::kHealthy;
    int consecutive_failures = 0;
    int consecutive_healthy = 0;
    double ewma_latency_us = 0.0;
  };

  void Run();
  /// Probes shard `i` and advances its state machine. Caller holds
  /// step_mutex_; `state` is the entry for shard `i`.
  void ProbeAndAdvance(size_t i, ShardState* state);
  void Transition(size_t shard, ShardState* state, ShardHealth to);
  void Rebuild(size_t shard, ShardState* state);

  ShardedRuntime* const runtime_;
  const uint64_t seed_;

  obs::MetricsRegistry registry_;
  obs::Counter& probes_;
  obs::Counter& probe_failures_;
  obs::Counter& transitions_;
  obs::Counter& rebuilds_;
  obs::Counter& rebuild_failures_;
  obs::Gauge& healthy_shards_;
  obs::Gauge& dead_shards_;

  /// Serializes probe rounds (Step vs the background thread) and guards
  /// shards_ + round_.
  mutable std::mutex step_mutex_;
  std::vector<ShardState> shards_;
  uint64_t round_ = 0;

  std::mutex thread_mutex_;  // guards thread_ start/stop
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_;
};

}  // namespace atnn::cluster

#endif  // ATNN_CLUSTER_SHARD_SUPERVISOR_H_
