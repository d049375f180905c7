#ifndef ATNN_RUNTIME_FAULT_INJECTION_H_
#define ATNN_RUNTIME_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/rng.h"

namespace atnn::runtime {

/// Knobs for the chaos harness. Each probability is evaluated
/// independently at its stage's hook point with a seeded Rng, so a chaos
/// run is reproducible: same seed, same request interleaving => same fault
/// schedule. All hooks are compiled in unconditionally; with
/// `enabled = false` (the default) every hook is a single branch on a
/// const bool — no lock, no rng draw — so production builds pay nothing.
struct FaultInjectionConfig {
  bool enabled = false;
  uint64_t seed = 20210304;
  /// P(a worker sleeps `worker_delay_us` before executing a batch) — models
  /// a stalled core, a page fault storm, a noisy neighbour.
  double worker_delay_probability = 0.0;
  int64_t worker_delay_us = 0;
  /// P(a batch's scoring pass is forced to fail) — models a poisoned input
  /// or a transient numerical blow-up; the runtime must answer every
  /// request in the batch from the degraded fallback chain.
  double batch_failure_probability = 0.0;
  /// P(an admission is treated as if the queue were full) — models burst
  /// overload without needing to actually saturate the queue.
  double enqueue_reject_probability = 0.0;
};

/// Seeded, thread-safe fault-decision point shared by the runtime's stages.
/// The runtime owns one injector; hooks are queried inline on the hot path.
class FaultInjector {
 public:
  FaultInjector() : FaultInjector(FaultInjectionConfig{}) {}
  explicit FaultInjector(const FaultInjectionConfig& config);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  bool enabled() const { return config_.enabled; }

  /// Returns the injected pre-batch delay in microseconds (0 = no fault).
  /// The caller performs the sleep so tests can observe without waiting.
  int64_t MaybeWorkerDelayUs();

  /// True when this batch's scoring pass must be treated as failed.
  bool ShouldFailBatch();

  /// True when this admission must be treated as a full-queue rejection.
  bool ShouldRejectEnqueue();

  /// One-shot consume of the corrupt-publish flag: returns true exactly
  /// once per arming. The runtime corrupts the snapshot it was handed (NaN
  /// poked into the mean-user vector) and lets validation reject it while
  /// the previous version keeps serving — the injected fault exercises the
  /// real rejection path, not a simulated one.
  bool TakeCorruptPublish();

  /// Arms the corrupt-publish fault for the next Publish(). Requires
  /// `enabled`.
  void ArmCorruptPublish();

  /// Armable drill switch: while set, every worker spins (in short sleeps)
  /// after popping a batch instead of executing it — the "hung shard" a
  /// health prober must detect. Requires `enabled`; cleared by SetStall-
  /// Workers(false) or rendered moot by Shutdown (workers re-check the
  /// batcher's closed flag so a stalled runtime can still shut down).
  void SetStallWorkers(bool stalled);
  bool stall_workers() const {
    return stall_workers_.load(std::memory_order_relaxed);
  }

  /// Armable drill switch: while set, every batch's scoring pass fails
  /// (the "sick shard" whose error rate trips a circuit breaker), without
  /// the probabilistic schedule. Requires `enabled`.
  void SetFailAllBatches(bool fail_all);
  bool fail_all_batches() const {
    return fail_all_batches_.load(std::memory_order_relaxed);
  }

  /// Total faults triggered across all hooks (for chaos-run reporting).
  int64_t faults_injected() const { return faults_injected_.load(); }

 private:
  bool Draw(double probability);

  const FaultInjectionConfig config_;
  std::mutex mutex_;  // guards rng_
  Rng rng_;
  std::atomic<bool> corrupt_publish_armed_{false};
  std::atomic<bool> stall_workers_{false};
  std::atomic<bool> fail_all_batches_{false};
  std::atomic<int64_t> faults_injected_{0};
};

}  // namespace atnn::runtime

#endif  // ATNN_RUNTIME_FAULT_INJECTION_H_
