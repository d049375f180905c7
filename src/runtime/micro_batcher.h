#ifndef ATNN_RUNTIME_MICRO_BATCHER_H_
#define ATNN_RUNTIME_MICRO_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "runtime/runtime_stats.h"

namespace atnn::runtime {

/// What overload does to new requests once the queue is at capacity.
enum class AdmissionPolicy {
  /// Enqueue blocks the caller until space frees up (producer-side
  /// backpressure; total memory stays bounded, latency absorbs the spike).
  kBlock,
  /// Enqueue immediately answers the request with ResourceExhausted (load
  /// shedding; callers see the overload and can retry or degrade).
  kRejectWithStatus,
};

struct BatcherConfig {
  /// Flush a batch as soon as it reaches this many requests.
  size_t max_batch_size = 64;
  /// ... or as soon as the oldest queued request has waited this long.
  int64_t max_delay_us = 2000;
  /// Bound on queued (admitted but not yet batched) requests.
  size_t queue_capacity = 4096;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;

  /// InvalidArgument unless max_batch_size >= 1, queue_capacity holds at
  /// least one full batch, and max_delay_us >= 0. Construction requires a
  /// valid config (checked); call this first on untrusted input so a typo'd
  /// flag becomes a Status instead of an abort or a queue that can never
  /// flush.
  Status Validate() const;
};

/// One fulfilled score: the model output plus the snapshot version that
/// produced it (so callers can attribute scores across hot-swaps) and the
/// serving tier that answered (kFresh outside degraded mode).
struct ScoreResult {
  double score = 0.0;
  uint64_t snapshot_version = 0;
  ServingTier tier = ServingTier::kFresh;
};

/// One shared completion for a burst of requests admitted together
/// (MicroBatcher::EnqueueBurst, InferenceRuntime::ScoreBurst): a result
/// slot per row, the count of rows still unanswered, and one timed wait.
/// It stands in for a promise/future pair per row, so a burst costs one
/// shared object and one cross-thread wake-up instead of one of each per
/// row. The burst's queued rows co-own it: a row answered after its waiter
/// gave up lands here, never in memory the waiter has moved on to.
class BurstCompletion {
 public:
  explicit BurstCompletion(size_t rows) : slots_(rows), unanswered_(rows) {}

  BurstCompletion(const BurstCompletion&) = delete;
  BurstCompletion& operator=(const BurstCompletion&) = delete;

  size_t size() const { return slots_.size(); }

  /// Answers row `slot`; each slot is answered once. The answer that
  /// leaves no row unanswered wakes the waiter.
  void Complete(size_t slot, StatusOr<ScoreResult> result);

  /// Answers a run of rows at once: row slots[k] gets results[k], all
  /// under one acquisition of the mutex and with at most one wake. The
  /// same outcome as Complete per row.
  void Complete(std::span<const size_t> slots,
                std::span<const ScoreResult> results);

  /// Blocks until every row is answered or `deadline` passes
  /// (time_point::max() waits unbounded). True when every row was
  /// answered.
  bool WaitUntil(std::chrono::steady_clock::time_point deadline);

  /// Calls `take(slot, answer)` for every row in slot order, under the
  /// burst's mutex so no answer can land mid-read: `answer` points at the
  /// row's result (the callee may move it out) or is null while the row is
  /// still unanswered. A row answered after this call is never seen by
  /// `take`, which must not call back into this completion.
  template <typename Take>
  void TakeAll(Take&& take) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      take(slot, slots_[slot].has_value() ? &*slots_[slot] : nullptr);
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable all_answered_;
  /// Empty until the row is answered.
  std::vector<std::optional<StatusOr<ScoreResult>>> slots_;
  size_t unanswered_;
};

/// A request admitted to the queue, waiting to be batched. Movable-only
/// because of the promise.
struct PendingRequest {
  int64_t item_row = 0;
  /// Where the answer goes: the promise of a single request (ScoreAsync,
  /// Probe), or slot `slot` of a shared burst completion (ScoreBurst).
  /// Exactly one of `promise` and `burst` is set.
  std::optional<std::promise<StatusOr<ScoreResult>>> promise;
  std::shared_ptr<BurstCompletion> burst;
  size_t slot = 0;
  std::chrono::steady_clock::time_point enqueue_time;
  /// Admission order, assigned by the batcher. Lets FlushHint name "every
  /// request admitted so far" without touching the requests themselves.
  uint64_t seq = 0;
  /// Absolute completion deadline; time_point::max() means "none". Expired
  /// requests are answered without a forward pass (degraded or
  /// DeadlineExceeded — the runtime decides, the batcher only carries it).
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  /// Answers the request through its promise or its burst slot. Every
  /// answer the runtime gives goes through here, exactly once per request.
  void Complete(StatusOr<ScoreResult> result);
};

/// Coalesces single-item score requests into micro-batches. Producers call
/// Enqueue (one row) or EnqueueBurst (many rows) from any thread;
/// consumers (the runtime's workers) call PopBatch, which blocks until at
/// least one request is queued and then waits until the batch is full or
/// the oldest request's age reaches max_delay_us — the standard
/// size-or-deadline flush rule. A producer that knows its requests are
/// over can cut the wait short with FlushHint; EnqueueBurst does so itself.
///
/// The queue is bounded (queue_capacity); see AdmissionPolicy for what
/// happens at the bound. Close() wakes everyone: queued requests still
/// drain through PopBatch (zero drops on shutdown), new Enqueues fail with
/// FailedPrecondition, and PopBatch returns an empty batch once the queue
/// is empty — the workers' exit signal.
class MicroBatcher {
 public:
  /// `stats` may be nullptr (no recording). Not owned; must outlive the
  /// batcher.
  explicit MicroBatcher(const BatcherConfig& config,
                        RuntimeStats* stats = nullptr);

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Admits a request and returns the future that will carry its response.
  /// On rejection (kRejectWithStatus + full queue) or after Close() the
  /// returned future is immediately ready with an error status.
  std::future<StatusOr<ScoreResult>> Enqueue(int64_t item_row);

  /// Admission primitive underneath Enqueue: on success sets *out to the
  /// response future and returns OK; on failure returns why —
  ///   ResourceExhausted:  queue full under kRejectWithStatus
  ///   DeadlineExceeded:   kBlock waited until `deadline` without space
  ///   FailedPrecondition: closed (shutting down)
  /// — and leaves *out untouched, so the caller can substitute a degraded
  /// answer instead of an error. Under kBlock with a finite deadline the
  /// wait for space is bounded by the deadline (backpressure can no longer
  /// stall a caller past its own budget).
  Status TryEnqueue(int64_t item_row,
                    std::chrono::steady_clock::time_point deadline,
                    std::future<StatusOr<ScoreResult>>* out);

  /// Admits a burst of requests in order under one acquisition of the
  /// mutex, stamping each row's enqueue time and admission order, and
  /// returns how many were admitted: always a prefix of `*requests`,
  /// moved into the queue. The rest stay in `*requests` for the caller to
  /// answer, and `*refused` says why (the codes of TryEnqueue):
  ///   ResourceExhausted:  the queue was full at the row's admission under
  ///                       kRejectWithStatus. Nothing drains while the
  ///                       burst holds the mutex, so a burst admitted to
  ///                       an empty queue takes exactly queue_capacity rows.
  ///   DeadlineExceeded:   kBlock waited past the row's deadline for space.
  ///   FailedPrecondition: closed (shutting down).
  /// Under kBlock the burst flushes what is queued and wakes a consumer
  /// before each wait for space, so a full queue drains at once instead of
  /// after max_delay_us. `enqueued` and `rejected` are counted once per
  /// burst, and the whole admitted burst is flushed at its end, as by
  /// FlushHint.
  size_t EnqueueBurst(std::vector<PendingRequest>* requests, Status* refused);

  /// Blocks for the next micro-batch. Returns an empty vector only after
  /// Close() once all queued requests have been handed out. Safe to call
  /// from multiple consumer threads; each request is handed to exactly one
  /// consumer.
  std::vector<PendingRequest> PopBatch();

  /// Group-boundary hint: every request admitted so far may flush as a
  /// partial batch immediately — the producer knows no co-riders are
  /// coming for them, so holding the batch window open is pure added
  /// latency. Requests admitted *after* the hint get the normal window.
  /// Cheap no-op when the queue is empty.
  void FlushHint();

  /// Stops admission and wakes all blocked producers/consumers.
  void Close();

  size_t queue_depth() const;
  bool closed() const;
  const BatcherConfig& config() const { return config_; }

 private:
  /// Under kBlock waits, until `deadline`, for queue space; then says
  /// whether one more request may be queued (OK) or why not, with the
  /// codes of TryEnqueue. Counts nothing. `lock` holds mutex_.
  Status AwaitSpaceLocked(std::unique_lock<std::mutex>* lock,
                          std::chrono::steady_clock::time_point deadline);

  /// The single accounting point for the queue_depth gauge: every queue
  /// mutation publishes through here, under mutex_, so the gauge can never
  /// disagree with what a consumer holding the lock would observe.
  void PublishDepthLocked();

  BatcherConfig config_;
  RuntimeStats* stats_;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<PendingRequest> queue_;
  bool closed_ = false;
  /// Admission counter and the high-water mark of the last FlushHint:
  /// requests with seq <= flush_seq_ skip the batch window.
  uint64_t admitted_seq_ = 0;
  uint64_t flush_seq_ = 0;
};

}  // namespace atnn::runtime

#endif  // ATNN_RUNTIME_MICRO_BATCHER_H_
