#ifndef ATNN_RUNTIME_INFERENCE_RUNTIME_H_
#define ATNN_RUNTIME_INFERENCE_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics_registry.h"
#include "runtime/fault_injection.h"
#include "runtime/micro_batcher.h"
#include "runtime/runtime_stats.h"
#include "runtime/snapshot_handle.h"
#include "serving/popularity_index.h"

namespace atnn::runtime {

struct RuntimeConfig {
  /// Worker threads executing micro-batches (each runs one blocking loop).
  size_t num_workers = 2;
  /// Memoize scores per (snapshot version, item row). Sound because the
  /// popularity path is deterministic given the published snapshot: the
  /// score depends only on the item profile and the frozen generator +
  /// mean-user vector. The cache is one entry per item row stamped with the
  /// version that scored it (16 bytes per row of the largest table
  /// published), so it holds at most one score per row. A Publish()
  /// rotates it in O(1) by advancing the version it accepts, so hot swaps
  /// can never serve a stale score as fresh; the previous version's
  /// entries survive one version as the degraded-mode stale tier. Under
  /// the Zipf-skewed traffic of real request logs this answers most
  /// requests without a forward pass.
  bool enable_score_cache = true;
  /// Per-request completion budget applied by ScoreAsync(row); 0 means no
  /// deadline. ScoreAsync(row, deadline_us) overrides per call. A request
  /// past its deadline is never given a forward pass: it is answered from
  /// the degraded fallback chain. On deadline expiry, queue rejection, or
  /// scoring failure, that chain answers from (in order) the score cache —
  /// current version first, then the previous version's rotated-out
  /// generation (stale-while-revalidate) — then the `prior` popularity
  /// index, then the running global mean score. Every ScoreResult is
  /// tagged with the tier that served it.
  int64_t default_deadline_us = 0;
  /// Tier-2 fallback source, e.g. yesterday's precomputed popularity index
  /// (see serving/PopularityIndex). May be null; replaceable at runtime
  /// via SetPrior().
  std::shared_ptr<const serving::PopularityIndex> prior;
  /// Chaos-testing hooks; disabled (zero-cost) by default.
  FaultInjectionConfig fault_injection;
  BatcherConfig batcher;

  /// InvalidArgument on: zero workers (requests would hang forever), an
  /// invalid batcher config (see BatcherConfig::Validate), or a nonzero
  /// default deadline shorter than the batcher's flush interval (every
  /// request would blow its budget waiting for the batch window — a config
  /// that can only degrade). Use InferenceRuntime::Create to get this as a
  /// Status instead of a checked abort.
  Status Validate() const;
};

class InferenceRuntime;

/// A snapshot that passed one runtime's publish checks, ready to swap in.
/// Only InferenceRuntime::CheckPublish makes one, and only the runtime that
/// made it accepts it in CommitPublish, so no unchecked snapshot can become
/// a serving version.
class CheckedSnapshot {
 private:
  friend class InferenceRuntime;
  CheckedSnapshot(const InferenceRuntime* checker, ServingSnapshot snapshot)
      : checker_(checker), snapshot_(std::move(snapshot)) {}

  const InferenceRuntime* checker_;
  ServingSnapshot snapshot_;
};

/// Concurrent micro-batching scorer for the paper's O(1) popularity path:
/// requests for single item rows are coalesced into micro-batches, each
/// batch runs one generator forward (`g(X_ip)`) on a worker and is scored
/// against the snapshot's mean user vector. This turns the per-call
/// overhead of one-item-at-a-time scoring (graph construction, embedding
/// gather, tiny matmuls) into amortized batch cost, and repeat requests
/// for the same item are answered from a per-snapshot-version score cache
/// — batching and caching are exactly the two properties that make
/// decoupled two-tower item paths cheap to serve.
///
/// Fault tolerance (DESIGN.md §7): requests carry deadlines, overload and
/// partial failure degrade instead of erroring (stale cache -> prior ->
/// global mean, each response tagged with its serving tier), snapshots are
/// validated on Publish so a corrupt model never becomes the serving
/// version, and a seeded fault injector can exercise all of it.
///
/// Lifecycle:
///   ATNN_ASSIGN_OR_RETURN(auto runtime, InferenceRuntime::Create(config));
///   ATNN_RETURN_IF_ERROR(runtime->Publish(snapshot).status());
///   auto future = runtime->ScoreAsync(row);  // or ScoreBurst(rows, us)
///   ...
///   runtime->Shutdown();                     // drains; also run by ~dtor
///
/// Hot swap: Publish() may be called at any time, from any thread, while
/// requests are in flight. Workers pick up the new version at their next
/// batch; batches already executing finish on the version they acquired.
/// No request is ever dropped or scored against a half-written model, and
/// a snapshot failing validation leaves the current version serving.
///
/// Thread safety: ScoreAsync/ScoreBurst/Score/Publish/SetPrior/stats are
/// safe from any thread. Scoring runs concurrent *forward* passes over a
/// shared immutable model; this is safe because forward ops only read
/// parameter values (training the published model concurrently is not
/// supported — train a copy and Publish it).
class InferenceRuntime {
 public:
  /// Validates `config` (see RuntimeConfig::Validate) and constructs.
  static StatusOr<std::unique_ptr<InferenceRuntime>> Create(
      const RuntimeConfig& config);

  /// Direct construction for call sites with known-good configs; aborts on
  /// an invalid one (Create is the Status-returning path).
  explicit InferenceRuntime(const RuntimeConfig& config);

  InferenceRuntime(const InferenceRuntime&) = delete;
  InferenceRuntime& operator=(const InferenceRuntime&) = delete;

  /// Drains and stops (see Shutdown).
  ~InferenceRuntime();

  /// Validates and atomically publishes a new serving snapshot (model +
  /// mean-user vector + item-profile table), returning its version. The
  /// plan that executes its cache misses is attached here
  /// (AttachServingPlan) at batcher.max_batch_size: lowered from the
  /// quantized artifact when the snapshot carries one, otherwise compiled
  /// from the fp32 model. A snapshot rejected by
  /// ValidateServingSnapshot (null members, dimension mismatch, an item
  /// table the generator cannot read, NaN/Inf weights) or whose plan fails
  /// to compile returns that Status, and the previously published version
  /// keeps serving untouched. Runs CheckPublish and then CommitPublish.
  StatusOr<uint64_t> Publish(ServingSnapshot snapshot);

  /// The checking half of Publish: applies an armed corrupt-publish fault,
  /// validates, and attaches the executor. A rejection is counted in
  /// publish_rejected and returned; nothing is swapped either way. Lets a
  /// caller check several runtimes' snapshots before swapping any.
  StatusOr<CheckedSnapshot> CheckPublish(ServingSnapshot snapshot);

  /// The swapping half of Publish: sizes the score cache for the snapshot's
  /// item table, makes it the serving version and rotates the cache.
  /// Cannot fail. `checked` must come from this runtime's CheckPublish.
  uint64_t CommitPublish(CheckedSnapshot checked);

  /// Enqueues one item row for scoring under the config's default
  /// deadline. The future resolves with the score, the snapshot version
  /// that produced it and the serving tier, or with:
  ///   - InvalidArgument:    item_row outside the snapshot's profile table
  ///   - FailedPrecondition: no snapshot published yet, or shutting down
  /// Overload, deadline expiry and scoring failures produce degraded OK
  /// responses from the fallback chain, never errors.
  std::future<StatusOr<ScoreResult>> ScoreAsync(int64_t item_row);

  /// Same, with an explicit per-request deadline (microseconds from now;
  /// 0 = no deadline, overriding any config default).
  std::future<StatusOr<ScoreResult>> ScoreAsync(int64_t item_row,
                                                int64_t deadline_us);

  /// Scores a burst of item rows under one deadline (microseconds from
  /// now; 0 = none): item_rows[i] is answered into slot i of the returned
  /// completion, with the outcome ScoreAsync would give that row alone.
  /// The burst is admitted under one acquisition of the batcher's mutex
  /// and flushed at its end, so no FlushHint is needed (see
  /// MicroBatcher::EnqueueBurst for what a full queue does to a burst).
  /// Rows the queue refuses are answered at once, degraded (or
  /// FailedPrecondition when shutting down). The caller waits once for the
  /// whole burst instead of once per row, and may stop waiting: rows
  /// answered later write into the completion, which they co-own.
  std::shared_ptr<BurstCompletion> ScoreBurst(
      const std::vector<int64_t>& item_rows, int64_t deadline_us);

  /// Blocking convenience wrapper around ScoreAsync.
  StatusOr<ScoreResult> Score(int64_t item_row);

  /// Synthetic health probe: scores `item_row` under `deadline_us` (must be
  /// > 0) and waits AT MOST that long for the answer, so a hung worker
  /// yields DeadlineExceeded instead of hanging the prober — the property a
  /// supervisor needs to detect a stalled shard. Issues its own FlushHint
  /// (probe traffic must not wait out the batch window for co-riders). The
  /// abandoned future on timeout is harmless: the worker resolves it into
  /// a discarded promise. Degraded answers come back OK with their tier, so
  /// health policies can distinguish "down" (error/timeout) from "sick"
  /// (serving, but not fresh). Cache note: probes cannot be masked by the
  /// score cache — cache lookups happen inside worker batch execution, so
  /// a stalled worker never answers, cached row or not.
  StatusOr<ScoreResult> Probe(int64_t item_row, int64_t deadline_us);

  /// Group-boundary hint after a run of ScoreAsync calls: the caller
  /// promises no more requests are coming for the current batch window, so
  /// any partial batch of already-admitted requests flushes immediately
  /// instead of waiting out max_delay_us for co-riders that never arrive.
  /// Probe issues one, and so does a caller warming the cache with single
  /// rows. ScoreBurst flushes its own burst and needs no hint.
  void FlushHint() { batcher_.FlushHint(); }

  /// Replaces the tier-2 fallback prior (may be null to remove it).
  void SetPrior(std::shared_ptr<const serving::PopularityIndex> prior);

  /// Stops admission, waits for every queued request to be answered, then
  /// joins the workers. Idempotent, and safe to call from several threads
  /// at once: every call returns once the workers are joined.
  void Shutdown();

  /// Test-only view of the score-cache generations: the versions the fresh
  /// and stale tiers accept and how many entries carry each stamp. The
  /// invariant asserted by tests (and relied on under streaming publish
  /// cadence): immediately after Publish returns version V, the fresh
  /// generation is empty at V and the stale generation holds at most the
  /// scores of V-1 — no entry from a version older than the one-version
  /// stale-while-revalidate window is served after a publish.
  struct CacheGenerations {
    uint64_t fresh_version = 0;
    size_t fresh_entries = 0;
    uint64_t stale_version = 0;
    size_t stale_entries = 0;
  };
  CacheGenerations ScoreCacheGenerationsForTest();

  StatsSnapshot stats() const;
  /// The runtime's metrics namespace: everything RuntimeStats records.
  /// Hand this to a obs::PeriodicJsonExporter (atnn_serve --metrics_json)
  /// or collect it directly; recording stays lock-free while you read.
  const obs::MetricsRegistry& metrics_registry() const {
    return stats_.registry();
  }
  obs::MetricsRegistry& metrics_registry() { return stats_.registry(); }
  uint64_t snapshot_version() const { return snapshots_.version(); }
  size_t queue_depth() const { return batcher_.queue_depth(); }
  const RuntimeConfig& config() const { return config_; }
  FaultInjector& fault_injector() { return injector_; }

 private:
  /// What one worker reuses from batch to batch (defined with
  /// ExecuteBatch): the plan's scratch, the gathered block and the
  /// per-batch index vectors.
  struct WorkerScratch;

  void WorkerLoop();
  /// Answers every request of `batch`: out-of-range rows and expired
  /// deadlines at once, the rest from the cache or one shared forward.
  /// Fresh answers are given once per run of consecutive rows of one burst
  /// (one BurstCompletion call, one record), with every row's latency read
  /// off one clock reading taken after the forward.
  void ExecuteBatch(const ServingSnapshot& snapshot,
                    std::vector<PendingRequest>* batch,
                    WorkerScratch* scratch);
  /// Fills `scores_out[i]` and marks `hit_out[i]` for each row cached at
  /// `version`; returns the number of hits. No-op when the cache is
  /// disabled. Allocates nothing.
  size_t LookupCached(uint64_t version, const std::vector<int64_t>& rows,
                      std::vector<double>* scores_out,
                      std::vector<char>* hit_out);
  /// Stamps freshly computed scores into their rows, unless a newer
  /// version was published in the meantime (the version check makes late
  /// writers harmless). Allocates nothing.
  void InsertCached(uint64_t version, const std::vector<int64_t>& rows,
                    const std::vector<double>& scores);
  /// Publish-time cache rotation: the serving version becomes the
  /// stale-while-revalidate version and entries stamped anything older stop
  /// matching either tier. Two integer stores; no entry is touched. Eager,
  /// because rotating on the next scored batch instead lets DegradedScore
  /// serve entries older than the one-version stale window whenever
  /// publishes outpace traffic (a publish-per-day streaming cadence).
  void EvictRetiredCacheGenerations(uint64_t published_version);
  /// Moves the cache to `version` (> cache_version_). Caller holds
  /// cache_mutex_.
  void RotateCacheLocked(uint64_t version);
  /// Walks the fallback chain for one item row and returns the degraded
  /// answer: cache (current then stale generation) -> prior -> global
  /// mean. Always succeeds; never blocks on the queue; never runs a
  /// forward pass.
  ScoreResult DegradedScore(int64_t item_row);
  /// Answers `request` from the fallback chain and records stats.
  /// `expired` marks deadline blown.
  void AnswerDegraded(PendingRequest* request, bool expired);
  /// Answers a request the queue refused for `why` (a TryEnqueue or
  /// EnqueueBurst code): FailedPrecondition as is, anything else degraded.
  void AnswerRefused(PendingRequest* request, const Status& why);
  /// Feeds the running global-mean accumulator (fresh scores only).
  void RecordFreshScores(const std::vector<double>& scores);

  RuntimeConfig config_;
  RuntimeStats stats_;
  FaultInjector injector_;
  SnapshotHandle snapshots_;
  MicroBatcher batcher_;

  /// One score per item row, stamped with the snapshot version that
  /// computed it; version 0 marks an empty entry (published versions start
  /// at 1).
  struct CacheEntry {
    double score = 0.0;
    uint64_t version = 0;
  };

  std::mutex cache_mutex_;
  /// Entries stamped cache_version_ are fresh hits; entries stamped
  /// stale_version_ (the previous version) are the stale-while-revalidate
  /// tier of the fallback chain; any other stamp is dead.
  uint64_t cache_version_ = 0;
  uint64_t stale_version_ = 0;
  /// Indexed by item row. Grown to every published item table before its
  /// version becomes visible, never shrunk.
  std::vector<CacheEntry> score_cache_;

  std::mutex prior_mutex_;
  std::shared_ptr<const serving::PopularityIndex> prior_;

  /// Running mean of fresh scores (global-mean fallback tier). Guarded by
  /// mean_mutex_; read/written on degraded paths only, so it is never on
  /// the fresh hot path's critical section.
  std::mutex mean_mutex_;
  double fresh_score_sum_ = 0.0;
  int64_t fresh_score_count_ = 0;

  /// EWMA of recent per-batch forward+score time, microseconds. Used to
  /// decide whether a near-deadline request can still afford the
  /// cache-fill slow path. Relaxed atomics: an approximate estimate is
  /// fine, a lock is not worth it.
  std::atomic<int64_t> forward_cost_ewma_us_{0};

  /// One thread per worker, started by the constructor body once every
  /// member a worker loop reads is built, and joined by Shutdown() (which
  /// the destructor runs before any member is torn down). workers_mutex_
  /// serializes the joins of concurrent Shutdown() calls.
  std::mutex workers_mutex_;
  std::vector<std::thread> workers_;
};

}  // namespace atnn::runtime

#endif  // ATNN_RUNTIME_INFERENCE_RUNTIME_H_
