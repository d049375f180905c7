#include "runtime/inference_runtime.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "data/schema.h"
#include "nn/ir/plan.h"

namespace atnn::runtime {

namespace {

using Clock = std::chrono::steady_clock;
constexpr auto kNoDeadline = Clock::time_point::max();

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double MicrosSince(Clock::time_point start) {
  return MicrosBetween(start, Clock::now());
}

/// The fault injector's snapshot-publish corruption: a NaN poked into a
/// copy of the mean-user vector. The corrupt snapshot then flows through
/// the *real* ValidateServingSnapshot rejection path — the injection
/// fabricates the damage, not the handling.
void CorruptSnapshotInPlace(ServingSnapshot* snapshot) {
  if (snapshot->predictor == nullptr) return;
  nn::Tensor mean = snapshot->predictor->mean_user_vector();
  if (mean.numel() > 0) {
    mean.data()[0] = std::numeric_limits<float>::quiet_NaN();
  }
  snapshot->predictor = std::make_shared<core::PopularityPredictor>(
      std::move(mean), snapshot->predictor->bias());
}

Status InjectedQueueFull() {
  return Status::ResourceExhausted("fault injection: queue full");
}

}  // namespace

Status RuntimeConfig::Validate() const {
  if (num_workers < 1) {
    return Status::InvalidArgument(
        "num_workers must be >= 1 (zero workers would leave every request "
        "unanswered forever)");
  }
  ATNN_RETURN_IF_ERROR(batcher.Validate());
  if (default_deadline_us < 0) {
    return Status::InvalidArgument("default_deadline_us must be >= 0");
  }
  if (default_deadline_us > 0 && default_deadline_us < batcher.max_delay_us) {
    return Status::InvalidArgument(
        "default_deadline_us (" + std::to_string(default_deadline_us) +
        ") is shorter than the batcher flush interval (" +
        std::to_string(batcher.max_delay_us) +
        "us): every request would expire waiting for its batch window");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<InferenceRuntime>> InferenceRuntime::Create(
    const RuntimeConfig& config) {
  ATNN_RETURN_IF_ERROR(config.Validate());
  return std::make_unique<InferenceRuntime>(config);
}

InferenceRuntime::InferenceRuntime(const RuntimeConfig& config)
    : config_(config),
      injector_(config.fault_injection),
      batcher_(config.batcher, &stats_),
      prior_(config.prior) {
  const Status valid = config.Validate();
  ATNN_CHECK(valid.ok()) << "invalid RuntimeConfig: " << valid.ToString()
                         << " (use InferenceRuntime::Create for a Status)";
  workers_.reserve(config.num_workers);
  for (size_t i = 0; i < config.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

InferenceRuntime::~InferenceRuntime() { Shutdown(); }

StatusOr<uint64_t> InferenceRuntime::Publish(ServingSnapshot snapshot) {
  ATNN_ASSIGN_OR_RETURN(CheckedSnapshot checked,
                        CheckPublish(std::move(snapshot)));
  return CommitPublish(std::move(checked));
}

StatusOr<CheckedSnapshot> InferenceRuntime::CheckPublish(
    ServingSnapshot snapshot) {
  if (injector_.TakeCorruptPublish()) CorruptSnapshotInPlace(&snapshot);
  Status valid = ValidateServingSnapshot(snapshot);
  if (valid.ok()) {
    valid = AttachServingPlan(
        static_cast<int64_t>(config_.batcher.max_batch_size), &snapshot);
  }
  if (!valid.ok()) {
    // Reject without touching the published version: the previous snapshot
    // keeps serving and the caller decides whether to retry (see
    // common/retry.h) or page someone.
    stats_.RecordPublishRejected();
    return valid;
  }
  return CheckedSnapshot(this, std::move(snapshot));
}

uint64_t InferenceRuntime::CommitPublish(CheckedSnapshot checked) {
  ATNN_CHECK(checked.checker_ == this)
      << "CommitPublish takes only a snapshot this runtime checked";
  ServingSnapshot& snapshot = checked.snapshot_;
  stats_.RecordPlanCompiled(snapshot.plan->plan_bytes());
  if (config_.enable_score_cache) {
    // Sized before the version becomes visible, so every row a worker can
    // range-check against this snapshot has an entry.
    const auto rows = static_cast<size_t>(snapshot.item_profiles->num_rows());
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (score_cache_.size() < rows) score_cache_.resize(rows);
  }
  const uint64_t version = snapshots_.Publish(std::move(snapshot));
  stats_.RecordSwap();
  EvictRetiredCacheGenerations(version);
  return version;
}

void InferenceRuntime::EvictRetiredCacheGenerations(
    uint64_t published_version) {
  if (!config_.enable_score_cache) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  // A concurrent publisher that won the version race already rotated past
  // us; this call's generation bookkeeping is obsolete.
  if (published_version <= cache_version_) return;
  RotateCacheLocked(published_version);
}

void InferenceRuntime::RotateCacheLocked(uint64_t version) {
  // The just-retired version serves one more version as the
  // stale-while-revalidate tier. More than one version behind (publishes
  // raced, or nothing was ever scored), no entry carries version - 1, so
  // the stale tier starts empty.
  stale_version_ =
      cache_version_ + 1 == version ? cache_version_ : version - 1;
  cache_version_ = version;
}

std::future<StatusOr<ScoreResult>> InferenceRuntime::ScoreAsync(
    int64_t item_row) {
  return ScoreAsync(item_row, config_.default_deadline_us);
}

std::future<StatusOr<ScoreResult>> InferenceRuntime::ScoreAsync(
    int64_t item_row, int64_t deadline_us) {
  const Clock::time_point deadline =
      deadline_us > 0 ? Clock::now() + std::chrono::microseconds(deadline_us)
                      : kNoDeadline;
  std::future<StatusOr<ScoreResult>> future;
  const Status refused = injector_.ShouldRejectEnqueue()
                             ? InjectedQueueFull()
                             : batcher_.TryEnqueue(item_row, deadline, &future);
  if (refused.ok()) return future;
  PendingRequest request;
  request.item_row = item_row;
  request.enqueue_time = Clock::now();
  request.promise.emplace();
  future = request.promise->get_future();
  AnswerRefused(&request, refused);
  return future;
}

std::shared_ptr<BurstCompletion> InferenceRuntime::ScoreBurst(
    const std::vector<int64_t>& item_rows, int64_t deadline_us) {
  const Clock::time_point now = Clock::now();
  const Clock::time_point deadline =
      deadline_us > 0 ? now + std::chrono::microseconds(deadline_us)
                      : kNoDeadline;
  auto burst = std::make_shared<BurstCompletion>(item_rows.size());
  std::vector<PendingRequest> requests;
  requests.reserve(item_rows.size());
  for (size_t i = 0; i < item_rows.size(); ++i) {
    PendingRequest request;
    request.item_row = item_rows[i];
    request.burst = burst;
    request.slot = i;
    request.enqueue_time = now;
    request.deadline = deadline;
    if (injector_.ShouldRejectEnqueue()) {
      AnswerRefused(&request, InjectedQueueFull());
      continue;
    }
    requests.push_back(std::move(request));
  }
  Status refused;
  const size_t admitted = batcher_.EnqueueBurst(&requests, &refused);
  for (size_t i = admitted; i < requests.size(); ++i) {
    AnswerRefused(&requests[i], refused);
  }
  return burst;
}

void InferenceRuntime::AnswerRefused(PendingRequest* request,
                                     const Status& why) {
  if (why.code() == StatusCode::kFailedPrecondition) {
    // Shutdown is not an overload: a degraded answer would hide that the
    // process is going away. Callers see the real condition.
    request->Complete(why);
    return;
  }
  // Queue rejection (ResourceExhausted) or deadline expiry while blocked on
  // backpressure (DeadlineExceeded): answer degraded, never re-touching the
  // queue — degraded responses must stay cheap precisely when the fresh
  // path is the bottleneck.
  AnswerDegraded(request, why.code() == StatusCode::kDeadlineExceeded);
}

StatusOr<ScoreResult> InferenceRuntime::Score(int64_t item_row) {
  return ScoreAsync(item_row).get();
}

StatusOr<ScoreResult> InferenceRuntime::Probe(int64_t item_row,
                                              int64_t deadline_us) {
  if (deadline_us <= 0) {
    return Status::InvalidArgument(
        "Probe requires a positive deadline: an unbounded probe against a "
        "hung shard would hang the prober with it");
  }
  auto future = ScoreAsync(item_row, deadline_us);
  FlushHint();
  if (future.wait_for(std::chrono::microseconds(deadline_us)) !=
      std::future_status::ready) {
    return Status::DeadlineExceeded("probe timed out after " +
                                    std::to_string(deadline_us) + "us");
  }
  return future.get();
}

void InferenceRuntime::SetPrior(
    std::shared_ptr<const serving::PopularityIndex> prior) {
  std::lock_guard<std::mutex> lock(prior_mutex_);
  prior_ = std::move(prior);
}

void InferenceRuntime::Shutdown() {
  batcher_.Close();
  std::lock_guard<std::mutex> lock(workers_mutex_);
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

StatsSnapshot InferenceRuntime::stats() const {
  StatsSnapshot snapshot = stats_.Snapshot();
  snapshot.faults_injected = injector_.faults_injected();
  return snapshot;
}

struct InferenceRuntime::WorkerScratch {
  /// Where the attached plan (fp32, or lowered from the quantized
  /// artifact) writes every intermediate at a fixed offset.
  nn::ir::PlanScratch plan;
  data::BlockBuffer block;
  std::vector<size_t> live;  // positions in the batch awaiting a score
  // Aligned with `live`:
  std::vector<int64_t> rows;
  std::vector<double> scores;
  std::vector<char> state;  // 0 = needs forward, 1 = hit, 2 = degraded
  std::vector<size_t> miss_pos;  // positions in the live-aligned arrays
  // Aligned with `miss_pos`:
  std::vector<int64_t> miss_rows;
  std::vector<double> miss_scores;
  // One run of burst answers:
  std::vector<size_t> run_slots;
  std::vector<ScoreResult> run_results;
};

void InferenceRuntime::WorkerLoop() {
  WorkerScratch scratch;
  for (;;) {
    std::vector<PendingRequest> batch = batcher_.PopBatch();
    if (batch.empty()) return;  // closed and drained
    // Injected hang: hold the popped batch unanswered until the drill ends.
    // Re-checking closed() keeps Shutdown() from deadlocking on a stalled
    // worker — the batch then falls through and is answered normally while
    // the batcher drains.
    while (injector_.stall_workers() && !batcher_.closed()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const int64_t injected_delay_us = injector_.MaybeWorkerDelayUs();
    if (injected_delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(injected_delay_us));
    }
    const auto snapshot = snapshots_.Acquire();
    if (snapshot == nullptr) {
      for (auto& request : batch) {
        request.Complete(Status::FailedPrecondition(
            "no model snapshot published; call Publish() first"));
        stats_.RecordResponse(false, MicrosSince(request.enqueue_time));
      }
      continue;
    }
    ExecuteBatch(*snapshot, &batch, &scratch);
  }
}

void InferenceRuntime::ExecuteBatch(const ServingSnapshot& snapshot,
                                    std::vector<PendingRequest>* batch,
                                    WorkerScratch* scratch) {
  const auto now = Clock::now();
  const int64_t num_rows = snapshot.item_profiles->num_rows();

  // Partition: out-of-range rows are answered immediately, requests past
  // their deadline degrade without a forward pass, the rest go through one
  // shared generator forward.
  std::vector<size_t>& live = scratch->live;
  live.clear();
  for (size_t i = 0; i < batch->size(); ++i) {
    PendingRequest& request = (*batch)[i];
    const int64_t row = request.item_row;
    if (row < 0 || row >= num_rows) {
      request.Complete(Status::InvalidArgument(
          "item row " + std::to_string(row) + " outside profile table [0, " +
          std::to_string(num_rows) + ")"));
      stats_.RecordResponse(false, MicrosSince(request.enqueue_time));
    } else if (request.deadline <= now) {
      AnswerDegraded(&request, /*expired=*/true);
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return;

  if (injector_.ShouldFailBatch()) {
    for (const size_t i : live) {
      AnswerDegraded(&(*batch)[i], /*expired=*/false);
    }
    return;
  }

  std::vector<int64_t>& rows = scratch->rows;
  rows.resize(live.size());
  for (size_t j = 0; j < live.size(); ++j) {
    rows[j] = (*batch)[live[j]].item_row;
  }
  std::vector<double>& scores = scratch->scores;
  scores.assign(live.size(), 0.0);
  std::vector<char>& state = scratch->state;
  state.assign(live.size(), 0);
  const size_t hits = LookupCached(snapshot.version, rows, &scores, &state);
  if (hits > 0) stats_.RecordCacheHits(hits);

  if (hits < live.size()) {
    // A miss pays for the forward pass (the cache-fill slow path). A
    // request whose remaining budget is below the recent forward cost
    // cannot make it: degrade now instead of blowing the deadline inside
    // the model.
    const int64_t estimate_us =
        forward_cost_ewma_us_.load(std::memory_order_relaxed);
    std::vector<size_t>& miss_pos = scratch->miss_pos;
    miss_pos.clear();
    for (size_t j = 0; j < live.size(); ++j) {
      if (state[j] != 0) continue;
      PendingRequest& request = (*batch)[live[j]];
      if (estimate_us > 0 && request.deadline != kNoDeadline &&
          request.deadline - now < std::chrono::microseconds(estimate_us)) {
        AnswerDegraded(&request, /*expired=*/true);
        state[j] = 2;
        continue;
      }
      miss_pos.push_back(j);
    }

    if (!miss_pos.empty()) {
      std::vector<int64_t>& miss_rows = scratch->miss_rows;
      miss_rows.clear();
      for (const size_t j : miss_pos) miss_rows.push_back(rows[j]);
      Stopwatch score_timer;
      data::BlockBuffer& block = scratch->block;
      data::GatherBlockInto(*snapshot.item_profiles, miss_rows, &block);
      // The plan yields [rows, cols] vectors in the worker's scratch.
      const StatusOr<const float*> vectors = snapshot.plan->Execute(
          {&block.categorical, block.numeric.data(), block.rows,
           block.numeric_cols},
          block.rows, &scratch->plan);
      bool scored = vectors.ok();
      if (scored) {
        stats_.RecordPlanExecution();
      } else {
        stats_.RecordPlanExecFallback();
      }
      const int64_t cols = snapshot.plan->output_cols();
      std::vector<double>& miss_scores = scratch->miss_scores;
      miss_scores.clear();
      for (size_t r = 0; scored && r < miss_rows.size(); ++r) {
        const double score = snapshot.predictor->ScoreVector(
            *vectors + static_cast<int64_t>(r) * cols, cols);
        scored = std::isfinite(score);
        miss_scores.push_back(score);
      }
      const double forward_us = score_timer.ElapsedMillis() * 1e3;
      stats_.RecordBatch(miss_rows.size(), forward_us);
      // EWMA (3/4 old, 1/4 new) of the batch forward cost feeds the
      // near-deadline skip above. Approximate by design.
      const auto measured = static_cast<int64_t>(forward_us);
      const int64_t old =
          forward_cost_ewma_us_.load(std::memory_order_relaxed);
      forward_cost_ewma_us_.store(
          old == 0 ? measured : (3 * old + measured) / 4,
          std::memory_order_relaxed);

      if (!scored) {
        // Scoring failure (an executor error, or a non-finite score from a
        // corrupt snapshot that slipped past validation): nothing from this
        // forward is trustworthy, so every miss degrades and the cache
        // stays clean.
        for (const size_t j : miss_pos) {
          AnswerDegraded(&(*batch)[live[j]], /*expired=*/false);
          state[j] = 2;
        }
      } else {
        for (size_t k = 0; k < miss_pos.size(); ++k) {
          scores[miss_pos[k]] = miss_scores[k];
        }
        InsertCached(snapshot.version, miss_rows, miss_scores);
        RecordFreshScores(miss_scores);
      }
    }
  }

  // Every fresh answer's latency is read off this one clock reading. A run
  // of consecutive rows of one burst with one enqueue time (a burst's rows
  // share it) is answered under one lock of its completion and recorded
  // once; a single-row request is answered through its promise.
  const Clock::time_point answered_at = Clock::now();
  std::vector<size_t>& run_slots = scratch->run_slots;
  std::vector<ScoreResult>& run_results = scratch->run_results;
  for (size_t j = 0, end = 0; j < live.size(); j = end) {
    end = j + 1;
    if (state[j] == 2) continue;  // already answered degraded
    PendingRequest& head = (*batch)[live[j]];
    const ScoreResult fresh{scores[j], snapshot.version, ServingTier::kFresh};
    const double latency_us = MicrosBetween(head.enqueue_time, answered_at);
    if (head.burst == nullptr) {
      head.Complete(fresh);
      stats_.RecordServed(ServingTier::kFresh, latency_us);
      continue;
    }
    run_slots.assign(1, head.slot);
    run_results.assign(1, fresh);
    for (; end < live.size() && state[end] != 2; ++end) {
      const PendingRequest& request = (*batch)[live[end]];
      if (request.burst != head.burst ||
          request.enqueue_time != head.enqueue_time) {
        break;
      }
      run_slots.push_back(request.slot);
      run_results.push_back(
          {scores[end], snapshot.version, ServingTier::kFresh});
    }
    head.burst->Complete(run_slots, run_results);
    stats_.RecordServed(ServingTier::kFresh, latency_us, end - j);
  }
}

size_t InferenceRuntime::LookupCached(uint64_t version,
                                      const std::vector<int64_t>& rows,
                                      std::vector<double>* scores_out,
                                      std::vector<char>* hit_out) {
  if (!config_.enable_score_cache) return 0;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  // Defensive rotation. Publish() rotates eagerly via
  // EvictRetiredCacheGenerations, so a batch normally never outruns the
  // cache version; this only fires in the window between snapshots_.Publish
  // making the version visible and the publisher reacquiring cache_mutex_.
  if (version > cache_version_) RotateCacheLocked(version);
  // A laggard worker still holding an older snapshot gets no hits (and, in
  // InsertCached, no inserts) — it must not read or rotate the newer cache.
  if (version != cache_version_) return 0;
  size_t hits = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto row = static_cast<size_t>(rows[i]);
    if (row >= score_cache_.size()) continue;
    const CacheEntry& entry = score_cache_[row];
    if (entry.version != version) continue;
    (*scores_out)[i] = entry.score;
    (*hit_out)[i] = 1;
    ++hits;
  }
  return hits;
}

InferenceRuntime::CacheGenerations
InferenceRuntime::ScoreCacheGenerationsForTest() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  CacheGenerations view;
  view.fresh_version = cache_version_;
  view.stale_version = stale_version_;
  for (const CacheEntry& entry : score_cache_) {
    if (entry.version == 0) continue;
    if (entry.version == cache_version_) ++view.fresh_entries;
    if (entry.version == stale_version_) ++view.stale_entries;
  }
  return view;
}

void InferenceRuntime::InsertCached(uint64_t version,
                                    const std::vector<int64_t>& rows,
                                    const std::vector<double>& scores) {
  if (!config_.enable_score_cache) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  // A worker still finishing a batch on version N must not poison the
  // cache after version N+1 was published and claimed it.
  if (cache_version_ != version) return;
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto row = static_cast<size_t>(rows[i]);
    if (row < score_cache_.size()) score_cache_[row] = {scores[i], version};
  }
}

ScoreResult InferenceRuntime::DegradedScore(int64_t item_row) {
  ScoreResult result;
  const uint64_t published_version = snapshots_.version();
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    // Rows of queue-rejected requests were never range-checked; a negative
    // row wraps past the end and misses too.
    const auto row = static_cast<size_t>(item_row);
    const CacheEntry entry =
        row < score_cache_.size() ? score_cache_[row] : CacheEntry{};
    if (entry.version != 0 && entry.version == cache_version_) {
      // A cache hit at the published version is the exact score — serving
      // it without a forward pass is not a degradation. In the brief
      // window between a publish becoming visible and its eager rotation
      // taking the cache mutex, the cache can still accept the previous
      // version's scores: those are stale, and tagged as such.
      result.score = entry.score;
      result.snapshot_version = cache_version_;
      result.tier = cache_version_ == published_version
                        ? ServingTier::kFresh
                        : ServingTier::kStaleCache;
      return result;
    }
    if (entry.version != 0 && entry.version == stale_version_) {
      result.score = entry.score;
      result.snapshot_version = stale_version_;
      result.tier = ServingTier::kStaleCache;
      return result;
    }
  }
  std::shared_ptr<const serving::PopularityIndex> prior;
  {
    std::lock_guard<std::mutex> lock(prior_mutex_);
    prior = prior_;
  }
  if (prior != nullptr) {
    const auto prior_score = prior->Score(item_row);
    if (prior_score.ok()) {
      result.score = prior_score.value();
      result.snapshot_version = published_version;
      result.tier = ServingTier::kPrior;
      return result;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mean_mutex_);
    // Before any fresh score exists the catalog-wide expectation is
    // unknown; 0.5 is the sigmoid midpoint — maximally noncommittal.
    result.score = fresh_score_count_ > 0
                       ? fresh_score_sum_ /
                             static_cast<double>(fresh_score_count_)
                       : 0.5;
  }
  result.snapshot_version = published_version;
  result.tier = ServingTier::kGlobalMean;
  return result;
}

void InferenceRuntime::AnswerDegraded(PendingRequest* request,
                                      bool expired) {
  if (expired) stats_.RecordDeadlineExpired();
  const ScoreResult result = DegradedScore(request->item_row);
  request->Complete(result);
  stats_.RecordServed(result.tier, MicrosSince(request->enqueue_time));
}

void InferenceRuntime::RecordFreshScores(const std::vector<double>& scores) {
  std::lock_guard<std::mutex> lock(mean_mutex_);
  for (const double score : scores) fresh_score_sum_ += score;
  fresh_score_count_ += static_cast<int64_t>(scores.size());
}

}  // namespace atnn::runtime
