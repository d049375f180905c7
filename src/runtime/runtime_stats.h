#ifndef ATNN_RUNTIME_RUNTIME_STATS_H_
#define ATNN_RUNTIME_RUNTIME_STATS_H_

#include <array>
#include <cstdint>
#include <string>

#include "obs/metrics_registry.h"

namespace atnn::runtime {

/// The runtime's histogram view type now lives in the observability layer
/// (src/obs/histogram.h); this alias keeps every existing
/// atnn::runtime::LogHistogram spelling working.
using LogHistogram = obs::LogHistogram;

/// Which tier of the serving stack produced a response. Ordered best to
/// worst: the degraded-mode fallback chain walks kStaleCache -> kPrior ->
/// kGlobalMean when the fresh path (forward pass or current-version cache)
/// cannot answer in time. Every ScoreResult carries its tier so callers —
/// and the chaos harness — can measure exactly how degraded a run was.
enum class ServingTier : uint8_t {
  /// Full forward pass or a current-version score-cache hit: the exact
  /// score the published model produces.
  kFresh = 0,
  /// A previous snapshot version's cached score (stale-while-revalidate).
  kStaleCache = 1,
  /// The popularity-index prior (e.g. yesterday's precomputed scores).
  kPrior = 2,
  /// Running mean of all fresh scores served so far — the answer of last
  /// resort, still unbiased over the catalog.
  kGlobalMean = 3,
};
inline constexpr size_t kNumServingTiers = 4;

/// Stable lowercase name, e.g. "fresh", "stale_cache".
const char* ServingTierToString(ServingTier tier);

/// Point-in-time copy of all runtime counters and histograms, safe to read
/// without synchronization after the copy.
struct StatsSnapshot {
  int64_t enqueued = 0;        // requests admitted into the queue
  int64_t rejected = 0;        // requests refused by backpressure
  int64_t completed_ok = 0;    // responses fulfilled with a score
  int64_t completed_error = 0; // responses fulfilled with an error status
  int64_t batches = 0;         // micro-batches executed
  int64_t cache_hits = 0;      // requests answered from the score cache
  int64_t swaps = 0;           // snapshot publishes observed
  int64_t publish_rejected = 0; // snapshots refused by validation
  int64_t deadline_expired = 0; // requests that blew their deadline
  int64_t degraded = 0;         // responses served by a non-fresh tier
  int64_t faults_injected = 0;  // chaos-harness triggers (0 in production)
  int64_t plan_compiled = 0;          // snapshots published with a compiled plan
  int64_t plan_executions = 0;        // miss batches scored via compiled plan
  // Miss batches whose plan execution failed and were answered from the
  // degraded chain.
  int64_t plan_exec_fallback = 0;
  int64_t plan_reserved_bytes = 0;    // scratch layout of the current plan
  std::array<int64_t, kNumServingTiers> tier_counts = {};
  LogHistogram enqueue_wait_us; // enqueue -> batch formation
  LogHistogram batch_size;      // items per executed micro-batch
  LogHistogram score_us;        // model forward + scoring per batch
  LogHistogram total_latency_us; // enqueue -> response, per request
  LogHistogram fresh_latency_us; // same, kFresh-tier responses only — the
                                 // p99 the chaos bench holds against the
                                 // fault-free baseline
};

/// Stats sink shared by the micro-batcher and the workers, backed by an
/// owned obs::MetricsRegistry. Every Record* call is lock-free: the
/// handles are resolved once at construction and each record is a relaxed
/// atomic op on a per-thread shard cell — no mutex anywhere in the
/// recording call chain (the old single-mutex design serialized every
/// worker and client three times per request). RecordServed and
/// RecordEnqueueWait take a `count` of requests that share one measurement
/// (a run of burst rows answered together) and cost one record whatever
/// the count; the totals are those of `count` single records. Snapshot()
/// aggregates the shards; it tolerates concurrent writers
/// (eventually-consistent telemetry reads, never torn memory).
///
/// The registry is exposed for exporters (atnn_serve --metrics_json) and
/// for attaching more instruments to the same namespace.
class RuntimeStats {
 public:
  RuntimeStats();

  RuntimeStats(const RuntimeStats&) = delete;
  RuntimeStats& operator=(const RuntimeStats&) = delete;

  void RecordEnqueued(size_t count = 1) {
    enqueued_.Increment(static_cast<int64_t>(count));
  }
  void RecordRejected(size_t count = 1) {
    rejected_.Increment(static_cast<int64_t>(count));
  }
  void RecordBatch(size_t batch_size, double score_us) {
    batches_.Increment();
    batch_size_.Record(static_cast<double>(batch_size));
    score_us_.Record(score_us);
  }
  void RecordCacheHits(size_t count) {
    cache_hits_.Increment(static_cast<int64_t>(count));
  }
  void RecordEnqueueWait(double wait_us, size_t count = 1) {
    enqueue_wait_us_.Record(wait_us, static_cast<int64_t>(count));
  }
  void RecordResponse(bool ok, double total_latency_us) {
    (ok ? completed_ok_ : completed_error_).Increment();
    total_latency_us_.Record(total_latency_us);
  }
  /// `count` OK responses attributed to their serving tier; non-fresh
  /// tiers also count as degraded.
  void RecordServed(ServingTier tier, double total_latency_us,
                    size_t count = 1) {
    const auto n = static_cast<int64_t>(count);
    completed_ok_.Increment(n);
    tier_counts_[static_cast<size_t>(tier)]->Increment(n);
    total_latency_us_.Record(total_latency_us, n);
    if (tier == ServingTier::kFresh) {
      fresh_latency_us_.Record(total_latency_us, n);
    } else {
      degraded_.Increment(n);
    }
  }
  void RecordSwap() { swaps_.Increment(); }
  void RecordPublishRejected() { publish_rejected_.Increment(); }
  void RecordDeadlineExpired() { deadline_expired_.Increment(); }
  /// A snapshot went live with a compiled plan of `reserved_bytes` scratch.
  void RecordPlanCompiled(size_t reserved_bytes) {
    plan_compiled_.Increment();
    plan_reserved_bytes_.Set(static_cast<double>(reserved_bytes));
  }
  /// One miss batch scored through the compiled plan.
  void RecordPlanExecution() { plan_executions_.Increment(); }
  /// A plan execution failed (shape drift, bad ids) and the batch's misses
  /// were answered from the degraded chain.
  void RecordPlanExecFallback() { plan_exec_fallback_.Increment(); }
  /// Instantaneous admitted-but-unbatched queue depth (gauge).
  void SetQueueDepth(size_t depth) {
    queue_depth_.Set(static_cast<double>(depth));
  }

  StatsSnapshot Snapshot() const;

  /// The backing registry, for exporters and extra instruments. Handles
  /// registered here share the snapshot/flush lifecycle of the runtime's
  /// own metrics.
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

  /// Renders the counters + latency percentiles through common/table_printer
  /// (one row per stage: count, mean, p50, p95, p99, max).
  static std::string ToTable(const StatsSnapshot& snapshot,
                             const std::string& title = "runtime stats");

 private:
  obs::MetricsRegistry registry_;
  obs::Counter& enqueued_;
  obs::Counter& rejected_;
  obs::Counter& completed_ok_;
  obs::Counter& completed_error_;
  obs::Counter& batches_;
  obs::Counter& cache_hits_;
  obs::Counter& swaps_;
  obs::Counter& publish_rejected_;
  obs::Counter& deadline_expired_;
  obs::Counter& degraded_;
  obs::Counter& plan_compiled_;
  obs::Counter& plan_executions_;
  obs::Counter& plan_exec_fallback_;
  std::array<obs::Counter*, kNumServingTiers> tier_counts_;
  obs::Gauge& queue_depth_;
  obs::Gauge& plan_reserved_bytes_;
  obs::Histogram& enqueue_wait_us_;
  obs::Histogram& batch_size_;
  obs::Histogram& score_us_;
  obs::Histogram& total_latency_us_;
  obs::Histogram& fresh_latency_us_;
};

}  // namespace atnn::runtime

#endif  // ATNN_RUNTIME_RUNTIME_STATS_H_
