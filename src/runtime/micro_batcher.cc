#include "runtime/micro_batcher.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace atnn::runtime {

namespace {

std::future<StatusOr<ScoreResult>> ReadyError(Status status) {
  std::promise<StatusOr<ScoreResult>> promise;
  auto future = promise.get_future();
  promise.set_value(std::move(status));
  return future;
}

double MicrosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

void BurstCompletion::Complete(size_t slot, StatusOr<ScoreResult> result) {
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[slot].emplace(std::move(result));
    last = --unanswered_ == 0;
  }
  // The answering row co-owns the burst, so it outlives this notify even
  // when the waiter returns and drops its reference first.
  if (last) all_answered_.notify_all();
}

void BurstCompletion::Complete(std::span<const size_t> slots,
                               std::span<const ScoreResult> results) {
  ATNN_DCHECK(slots.size() == results.size());
  if (slots.empty()) return;
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t k = 0; k < slots.size(); ++k) {
      slots_[slots[k]].emplace(results[k]);
    }
    unanswered_ -= slots.size();
    last = unanswered_ == 0;
  }
  if (last) all_answered_.notify_all();
}

bool BurstCompletion::WaitUntil(
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto answered = [this] { return unanswered_ == 0; };
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    all_answered_.wait(lock, answered);
    return true;
  }
  return all_answered_.wait_until(lock, deadline, answered);
}

void PendingRequest::Complete(StatusOr<ScoreResult> result) {
  if (burst != nullptr) {
    burst->Complete(slot, std::move(result));
  } else {
    promise->set_value(std::move(result));
  }
}

Status BatcherConfig::Validate() const {
  if (max_batch_size < 1) {
    return Status::InvalidArgument("max_batch_size must be >= 1");
  }
  if (queue_capacity < max_batch_size) {
    return Status::InvalidArgument(
        "queue_capacity (" + std::to_string(queue_capacity) +
        ") must hold at least one full batch of " +
        std::to_string(max_batch_size));
  }
  if (max_delay_us < 0) {
    return Status::InvalidArgument("max_delay_us must be >= 0");
  }
  return Status::OK();
}

MicroBatcher::MicroBatcher(const BatcherConfig& config, RuntimeStats* stats)
    : config_(config), stats_(stats) {
  ATNN_CHECK(config.Validate().ok())
      << "invalid BatcherConfig: " << config.Validate().ToString()
      << " (call Validate() before constructing)";
}

std::future<StatusOr<ScoreResult>> MicroBatcher::Enqueue(int64_t item_row) {
  std::future<StatusOr<ScoreResult>> future;
  const Status admitted = TryEnqueue(
      item_row, std::chrono::steady_clock::time_point::max(), &future);
  if (!admitted.ok()) return ReadyError(admitted);
  return future;
}

Status MicroBatcher::TryEnqueue(
    int64_t item_row, std::chrono::steady_clock::time_point deadline,
    std::future<StatusOr<ScoreResult>>* out) {
  PendingRequest request;
  request.item_row = item_row;
  request.enqueue_time = std::chrono::steady_clock::now();
  request.deadline = deadline;
  request.promise.emplace();
  auto future = request.promise->get_future();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const Status space = AwaitSpaceLocked(&lock, deadline);
    if (!space.ok()) {
      if (stats_ != nullptr) stats_->RecordRejected();
      return space;
    }
    request.seq = ++admitted_seq_;
    queue_.push_back(std::move(request));
    // Wake a consumer only on the transitions that change what a consumer
    // would do: the queue becoming non-empty (an idle worker must start a
    // batch window) or another full batch becoming available (a second
    // worker can run it). Per-enqueue notify_one would wake the collecting
    // worker 64 times per batch for nothing — measurable context-switch
    // churn at six-figure request rates.
    const size_t depth = queue_.size();
    if (depth == 1 || depth % config_.max_batch_size == 0) {
      not_empty_.notify_one();
    }
    PublishDepthLocked();
  }
  if (stats_ != nullptr) stats_->RecordEnqueued();
  *out = std::move(future);
  return Status::OK();
}

size_t MicroBatcher::EnqueueBurst(std::vector<PendingRequest>* requests,
                                  Status* refused) {
  size_t admitted = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto now = std::chrono::steady_clock::now();
    for (; admitted < requests->size(); ++admitted) {
      PendingRequest& request = (*requests)[admitted];
      const bool must_wait = config_.admission == AdmissionPolicy::kBlock &&
                             !closed_ &&
                             queue_.size() >= config_.queue_capacity;
      if (must_wait) {
        // Waiting for space releases the mutex, so first let the consumers
        // at what is queued: flush it and wake them, or the full queue
        // would only drain once its oldest request aged out.
        flush_seq_ = admitted_seq_;
        PublishDepthLocked();
        not_empty_.notify_all();
      }
      *refused = AwaitSpaceLocked(&lock, request.deadline);
      if (!refused->ok()) break;
      if (must_wait) now = std::chrono::steady_clock::now();
      request.enqueue_time = now;
      request.seq = ++admitted_seq_;
      queue_.push_back(std::move(request));
    }
    // The whole burst is in: no co-riders are coming for it, so it flushes
    // like a FlushHint.
    if (admitted > 0) flush_seq_ = admitted_seq_;
    PublishDepthLocked();
  }
  if (stats_ != nullptr) {
    if (admitted > 0) stats_->RecordEnqueued(admitted);
    if (admitted < requests->size()) {
      stats_->RecordRejected(requests->size() - admitted);
    }
  }
  // The wakes the per-row rule would give (the queue turning non-empty,
  // each further full batch) cannot take effect while the burst holds the
  // mutex, so they are given here as one, together with the flush's.
  // notify_all, as in FlushHint: the consumer in the batch window is not
  // necessarily the one a notify_one would reach.
  if (admitted > 0) not_empty_.notify_all();
  return admitted;
}

Status MicroBatcher::AwaitSpaceLocked(
    std::unique_lock<std::mutex>* lock,
    std::chrono::steady_clock::time_point deadline) {
  if (config_.admission == AdmissionPolicy::kBlock) {
    const auto have_space = [this] {
      return closed_ || queue_.size() < config_.queue_capacity;
    };
    if (deadline == std::chrono::steady_clock::time_point::max()) {
      not_full_.wait(*lock, have_space);
    } else if (!not_full_.wait_until(*lock, deadline, have_space)) {
      // Backpressure held the caller all the way to its deadline.
      return Status::DeadlineExceeded(
          "request deadline expired waiting for queue space");
    }
  }
  if (closed_) return Status::FailedPrecondition("runtime is shutting down");
  if (queue_.size() >= config_.queue_capacity) {
    // Only reachable under kRejectWithStatus: kBlock waited for space.
    return Status::ResourceExhausted(
        "request queue full (" + std::to_string(config_.queue_capacity) +
        " pending)");
  }
  return Status::OK();
}

std::vector<PendingRequest> MicroBatcher::PopBatch() {
  std::vector<PendingRequest> batch;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) {
        // Closed and drained: republish so the gauge reads 0 even if this
        // consumer lost a race for the final batch after the last
        // publication it observed.
        PublishDepthLocked();
        return {};
      }

      // Flush rule: full batch, the *oldest* request has aged out, or a
      // FlushHint covers it (its producer promised no more co-riders).
      // After Close() any partial batch flushes immediately — drain fast.
      // Producers only notify on empty->nonempty and full-batch
      // boundaries, so this wait normally wakes exactly twice per batch:
      // once to open the window, once when it can flush. The empty()
      // guard re-checks front() safely after another consumer drains the
      // queue mid-wait.
      const auto deadline =
          queue_.front().enqueue_time +
          std::chrono::microseconds(config_.max_delay_us);
      while (!closed_ && queue_.size() < config_.max_batch_size &&
             (queue_.empty() || queue_.front().seq > flush_seq_)) {
        if (not_empty_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      // Another consumer may have taken everything while we waited.
      if (queue_.empty()) continue;

      const size_t take = std::min(queue_.size(), config_.max_batch_size);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      not_full_.notify_all();
      PublishDepthLocked();
      break;
    }
  }
  if (stats_ != nullptr) {
    // Record enqueue waits outside the queue lock, where producers are hot.
    // A burst's rows share one enqueue time, so each run of equal times is
    // one record of its length.
    const auto now = std::chrono::steady_clock::now();
    for (size_t begin = 0, end = 0; begin < batch.size(); begin = end) {
      const auto enqueued = batch[begin].enqueue_time;
      while (end < batch.size() && batch[end].enqueue_time == enqueued) ++end;
      stats_->RecordEnqueueWait(MicrosBetween(enqueued, now), end - begin);
    }
  }
  return batch;
}

void MicroBatcher::PublishDepthLocked() {
  // Lock-free gauge store; publishing it under the queue lock keeps the
  // reading exporter's view consistent with what consumers will see.
  if (stats_ != nullptr) stats_->SetQueueDepth(queue_.size());
}

void MicroBatcher::FlushHint() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return;
    flush_seq_ = admitted_seq_;
  }
  // notify_all, not notify_one: the consumer sitting in the batch window
  // is not necessarily the one the enqueue-path notifications went to.
  not_empty_.notify_all();
}

void MicroBatcher::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

size_t MicroBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool MicroBatcher::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace atnn::runtime
