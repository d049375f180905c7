#ifndef ATNN_CLUSTER_SHARDED_RUNTIME_H_
#define ATNN_CLUSTER_SHARDED_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cluster/admission.h"
#include "cluster/shard_ring.h"
#include "common/status.h"
#include "data/schema.h"
#include "obs/metrics_registry.h"
#include "runtime/inference_runtime.h"
#include "serving/popularity_index.h"

namespace atnn::cluster {

struct ShardedRuntimeConfig {
  /// Per-shard InferenceRuntime worker groups. Total worker threads are
  /// num_shards * shard.num_workers.
  size_t num_shards = 2;
  /// Template applied to every shard: worker count, batcher, score cache,
  /// chaos hooks. `shard.prior` is ignored — each shard's prior is sliced
  /// out of `prior` (re-keyed to local rows) at PublishSharded time,
  /// because shards score by local row.
  runtime::RuntimeConfig shard;
  /// Whole-request completion budget for Score/ScoreBatch, microseconds;
  /// 0 = none. Three quarters of it is the scatter leg: each shard burst's
  /// deadline, counted from the moment the burst is handed to its shard.
  /// The whole budget, counted from the ScoreBatch call, bounds how long
  /// the gather waits on stragglers before degrading them.
  int64_t default_deadline_us = 0;
  /// Front-end fallback, keyed by *global* item row: answers requests
  /// whose shard is down or whose gather budget expired. May be null (the
  /// fallback then serves the noncommittal 0.5 global-mean answer).
  std::shared_ptr<const serving::PopularityIndex> prior;

  Status Validate() const;
};

/// Outcome of one synthetic shard probe (see ProbeShard).
struct ProbeReport {
  /// OK when the shard answered inside the deadline (possibly degraded);
  /// DeadlineExceeded on a hung shard; other codes for a down shard.
  Status status;
  /// Wall time the probe took, microseconds.
  double latency_us = 0.0;
  /// Tier of the answer when status is OK.
  runtime::ServingTier tier = runtime::ServingTier::kFresh;
  /// The supervisor's health criterion: an answer arrived AND it was
  /// served fresh. A shard alive enough to answer from its prior is not
  /// healthy, just not completely dead.
  bool healthy() const {
    return status.ok() && tier == runtime::ServingTier::kFresh;
  }
};

/// Outcome of one live resize (see ResizeShards).
struct ResizeReport {
  size_t from_shards = 0;
  size_t to_shards = 0;
  int64_t total_rows = 0;
  /// Rows whose owning shard changed.
  int64_t moved_rows = 0;
  /// The ring's bounded-remap guarantee, verified over the actual catalog:
  /// on grow, every moved row landed on an added shard; on shrink, every
  /// moved row came from a removed shard.
  bool moved_only_within_bound = true;
  /// Epoch id serving after the resize.
  uint64_t epoch = 0;
};

/// Scatter/gather front-end over N per-shard InferenceRuntimes — ROADMAP
/// item 1's "shard the catalog N ways" layer. The consistent-hash ring
/// assigns every global item row to a shard; PublishSharded slices the
/// catalog so each shard holds only its rows (its own snapshot slice,
/// score cache, and metrics namespace), and ScoreBatch fans a batch out to
/// the owning shards and merges the answers under a deadline budget split
/// between the two legs.
///
/// Epochs: the ring, the shard slots (runtime + circuit breaker), and the
/// routing table are bundled into one immutable Epoch object swapped
/// RCU-style. Admin operations (resize, rebuild, a publish that changes
/// the row->local mapping) install a new epoch, wait for in-flight
/// requests on the old epoch to drain, and only then shut down replaced
/// runtimes — so a resize or recovery never drops or errors a request
/// that was already in flight.
///
/// Failure semantics: a shard that is down (chaos: ShutDownShard), or that
/// cannot answer inside the gather budget, never fails the request — the
/// front-end answers from the global popularity prior (tier kPrior, or
/// kGlobalMean without one). A shard whose error rate trips its circuit
/// breaker is shed at scatter time the same way until probes close the
/// breaker. Shard-internal overload/deadline pressure degrades inside the
/// shard exactly as a single InferenceRuntime does. Every response carries
/// a serving tier; the only error Statuses a caller can see are
/// InvalidArgument (row outside the catalog) and FailedPrecondition
/// (nothing published yet).
///
/// Thread safety: every public method is safe from any thread. Admin
/// operations (PublishSharded/ResizeShards/RebuildShard) serialize among
/// themselves on one mutex.
class ShardedRuntime {
 public:
  static StatusOr<std::unique_ptr<ShardedRuntime>> Create(
      const ShardedRuntimeConfig& config);

  /// Aborts on an invalid config (Create is the Status path).
  explicit ShardedRuntime(const ShardedRuntimeConfig& config);

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  ~ShardedRuntime();

  /// Validates `full` and attaches its plan (runtime::AttachServingPlan)
  /// once up front: a failure returns that Status before any shard swaps
  /// and counts in gather.publish_rejected. Then publishes each shard its
  /// slice of the item-profile table (sharing the model, predictor and
  /// plan, which are row-independent) plus its re-keyed prior, checking
  /// every shard's snapshot before swapping any.
  /// Returns the per-shard snapshot version. The common republish keeps
  /// the ring and the row count: it reuses the compact routing table and
  /// every shard's re-keyed prior, and when `full.item_profiles` is the
  /// very table object last published it also reuses every shard's slice,
  /// so it costs validation, one plan compile and the swaps. Any other
  /// table object is sliced anew. Slices are published in place and all
  /// shards advance in lockstep. When the row->shard/local mapping changed
  /// (first publish after a resize, or a changed row count), affected
  /// shards are republished onto fresh runtime instances behind an epoch
  /// swap, so in-flight requests holding old local indices finish against
  /// the slices they were routed for. On a per-shard rejection (only
  /// reachable via injected corruption — validation already passed) no
  /// shard has swapped: the previous version keeps serving on every shard
  /// and the routing table is left untouched. The snapshot, its slices
  /// and priors are retained as the source for RebuildShard/ResizeShards.
  StatusOr<uint64_t> PublishSharded(const runtime::ServingSnapshot& full);

  /// Live-resizes the cluster to `new_num_shards` without dropping or
  /// erroring any request. Grow: existing shards keep their slices
  /// untouched (bounded remap moves rows only TO the added shards, and a
  /// slice holding rows that no longer route to it is harmless); added
  /// shards get fresh compact slices published before the epoch swap.
  /// Shrink: surviving shards republish their slice as their old rows plus
  /// the gained rows appended — old local indices stay valid for requests
  /// already in flight — and removed shards are shut down only after the
  /// old epoch drains. FailedPrecondition before the first successful
  /// PublishSharded (there is no catalog to re-slice).
  StatusOr<ResizeReport> ResizeShards(size_t new_num_shards);

  /// Rebuilds shard `shard` from the last successfully published snapshot:
  /// a fresh InferenceRuntime is constructed, the shard's stored slice and
  /// prior are published and validated, and it replaces the old runtime
  /// behind an epoch swap (the old one is shut down after the drain). The
  /// shard's circuit breaker is force-opened, so the rebuilt shard serves
  /// no traffic until probes walk it half-open -> closed: recovery is
  /// re-admission THROUGH health checks, not a blind swap-in.
  Status RebuildShard(size_t shard);

  /// Synthetic health probe against one shard: scores a deterministically
  /// chosen owned row (varied by `salt`) under a 50 ms deadline, bounded so
  /// a hung shard returns DeadlineExceeded instead of hanging the prober.
  /// The outcome is fed to the shard's circuit breaker as probe traffic
  /// (driving open -> half-open -> closed). A shard that currently owns no
  /// rows probes trivially healthy.
  ProbeReport ProbeShard(size_t shard, uint64_t salt);

  /// Scatter/gathers one batch of global item rows under the config's
  /// default deadline budget. results[i] answers item_rows[i]:
  ///   - OK + tier:          fresh/degraded score (see class comment)
  ///   - InvalidArgument:    row outside the published catalog
  ///   - FailedPrecondition: PublishSharded never succeeded
  /// Each shard gets its rows as one burst (InferenceRuntime::ScoreBurst)
  /// under one deadline, and the gather waits once per shard. A row still
  /// unanswered at the whole-request deadline is answered from the
  /// front-end fallback and counts in gather.timeouts and as a failure of
  /// its shard's breaker; the shard's late answer lands in the burst's
  /// completion, never in the returned results.
  std::vector<StatusOr<runtime::ScoreResult>> ScoreBatch(
      const std::vector<int64_t>& item_rows);

  /// Same, with an explicit whole-request budget (microseconds; 0 = none).
  std::vector<StatusOr<runtime::ScoreResult>> ScoreBatch(
      const std::vector<int64_t>& item_rows, int64_t deadline_us);

  /// Single-row convenience wrapper.
  StatusOr<runtime::ScoreResult> Score(int64_t item_row);

  /// Answers every row from the front-end fallback without touching any
  /// shard: the tier-tagged, never-an-error shed response used by
  /// per-tenant admission control for over-quota traffic. Rows outside
  /// the catalog still come back InvalidArgument; before the first publish
  /// the rows are answered from the prior/global-mean anyway (a shed must
  /// not depend on serving state).
  std::vector<StatusOr<runtime::ScoreResult>> DegradedBatch(
      const std::vector<int64_t>& item_rows);

  /// Chaos hook: takes shard `i` down cold (drains and joins its
  /// workers). Requests routed to it degrade through the front-end prior
  /// until its breaker opens (then they shed at scatter), and a
  /// supervisor's probes will find it dead and rebuild it.
  void ShutDownShard(size_t shard);

  /// Shuts every shard down. Idempotent; also run by the destructor.
  void Shutdown();

  size_t num_shards() const { return CurrentEpoch()->shards.size(); }
  /// Returns the current epoch's ring by value: a resize can retire the
  /// epoch (and its ring) at any moment, so no reference would be stable.
  ShardRing ring() const;
  runtime::InferenceRuntime& shard(size_t i);
  const runtime::InferenceRuntime& shard(size_t i) const;
  CircuitBreaker& breaker(size_t i);
  const ShardedRuntimeConfig& config() const { return config_; }
  uint64_t snapshot_version() const {
    return published_version_.load(std::memory_order_relaxed);
  }
  uint64_t epoch_id() const { return CurrentEpoch()->id; }
  bool has_published() const { return CurrentEpoch()->routing != nullptr; }

  /// One snapshot of the whole tree: the front-end's own gather.* metrics
  /// plus every shard's registry under the namespace "shard<i>." —
  /// disjoint by construction, so per-shard behaviour stays attributable
  /// after aggregation. Names come back sorted.
  obs::MetricsSnapshot Collect() const;

 private:
  /// Immutable global-row routing: shard_of_row/local_of_row are dense
  /// over [0, num_rows). local_of_row indexes into the *published slice*
  /// of the owning shard, which after a grow-resize may be sparser than a
  /// compact renumbering (kept rows keep their old local index).
  struct RoutingTable {
    std::vector<uint32_t> shard_of_row;
    std::vector<int64_t> local_of_row;
    std::vector<std::vector<int64_t>> rows_of_shard;  // slice layout
    /// Built by CompactRouting: each shard's slice is its owned rows in
    /// global-row order, a function of the epoch's ring and the row count
    /// alone. ResizeShards' prefix-stable tables are not compact.
    bool compact = false;
  };

  /// What one shard serves of the last accepted snapshot: its slice of the
  /// item-profile table and its prior re-keyed to local rows (null without
  /// a cluster prior).
  struct ShardSlice {
    std::shared_ptr<const data::EntityTable> item_profiles;
    std::shared_ptr<const serving::PopularityIndex> prior;
  };

  /// One shard slot: the runtime serving its slice plus the breaker
  /// guarding it. The breaker object is stable across rebuilds (it guards
  /// "shard i", not one runtime instance).
  struct ShardSlot {
    std::shared_ptr<runtime::InferenceRuntime> runtime;
    std::shared_ptr<CircuitBreaker> breaker;
  };

  /// Everything a request needs to route consistently, swapped as one
  /// immutable unit. `routing` is null until the first publish.
  struct Epoch {
    uint64_t id = 1;
    ShardRing ring;
    std::vector<ShardSlot> shards;
    std::shared_ptr<const RoutingTable> routing;

    explicit Epoch(ShardRing r) : ring(std::move(r)) {}
  };

  std::shared_ptr<const Epoch> CurrentEpoch() const;
  /// Publishes `epoch` as current and blocks until every in-flight reader
  /// of the previous epoch has finished (drain), so the caller may safely
  /// shut down runtimes absent from the new epoch. The caller must have
  /// dropped its own reference to the previous epoch first — the drain
  /// waits for the use count to reach one, and a reference still held by
  /// the caller would deadlock it.
  void SwapEpochAndDrain(std::shared_ptr<const Epoch> epoch);
  /// Builds a fresh runtime from the shard template (no prior installed).
  std::shared_ptr<runtime::InferenceRuntime> MakeShardRuntime() const;
  /// Compact routing of rows [0, num_rows) under `ring`: one ShardFor per
  /// row.
  static std::shared_ptr<const RoutingTable> CompactRouting(
      const ShardRing& ring, int64_t num_rows);
  /// The cluster prior re-keyed to the local rows of a slice holding
  /// `members`; null without a cluster prior.
  std::shared_ptr<const serving::PopularityIndex> RekeyPrior(
      const std::vector<int64_t>& members) const;
  /// Publishes `full` over `slices[s]` onto `targets[s]` for every shard s
  /// with a non-null target, then installs each slice's prior. Every
  /// target's snapshot is checked before any swaps, so a rejection leaves
  /// every target serving its previous version. Returns the highest
  /// version a target now serves.
  StatusOr<uint64_t> PublishSlices(
      const runtime::ServingSnapshot& full,
      const std::vector<ShardSlice>& slices,
      const std::vector<runtime::InferenceRuntime*>& targets);
  /// Prior/global-mean fallback for `global_row`; always OK, always
  /// tier-tagged.
  runtime::ScoreResult FrontendDegraded(int64_t global_row);

  ShardedRuntimeConfig config_;

  obs::MetricsRegistry frontend_;
  obs::Counter& requests_;
  obs::Counter& shard_errors_;
  obs::Counter& gather_timeouts_;
  obs::Counter& frontend_degraded_;
  obs::Counter& breaker_shed_;
  obs::Counter& probes_;
  obs::Counter& probe_failures_;
  obs::Counter& resizes_;
  /// PublishSharded calls refused up front (validation or plan compile).
  obs::Counter& publish_rejected_;
  obs::Counter& rebuilds_;
  obs::Gauge& epoch_gauge_;
  obs::Histogram& fanout_us_;
  obs::Histogram& merge_us_;

  /// Serializes admin mutations (publish, resize, rebuild, shutdown).
  std::mutex admin_mutex_;
  /// Rebuild/resize source: the last snapshot PublishSharded accepted.
  /// Guarded by admin_mutex_.
  std::optional<runtime::ServingSnapshot> last_full_;
  /// What each shard of the current epoch serves of last_full_, indexed by
  /// shard. Guarded by admin_mutex_.
  std::vector<ShardSlice> slices_;
  /// Runtimes replaced or removed by admin operations, shut down after
  /// their epoch drained; kept so shard(i) references from old epochs
  /// stay valid for the runtime's lifetime. Guarded by admin_mutex_.
  std::vector<std::shared_ptr<runtime::InferenceRuntime>> retired_;

  mutable std::mutex epoch_mutex_;
  std::shared_ptr<const Epoch> epoch_;

  std::atomic<uint64_t> published_version_{0};
};

}  // namespace atnn::cluster

#endif  // ATNN_CLUSTER_SHARDED_RUNTIME_H_
