#include "openloop.h"

#include <sys/prctl.h>

#include <chrono>

#include "common/logging.h"
#include "stats.h"

namespace atnn::perfbench {

namespace {

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Sleeps while the due time is far, then spins the last stretch: the
/// sleep overshoots by the host's wake-up latency, the spin does not.
void WaitUntil(Clock::time_point target) {
  constexpr auto kSpin = std::chrono::microseconds(50);
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= target) return;
    if (target - now > kSpin) {
      std::this_thread::sleep_until(target - kSpin);
    } else {
      CpuRelax();
    }
  }
}

}  // namespace

Schedule PoissonZipfSchedule(Rng* rng, double rate_rps, double seconds,
                             const std::vector<int64_t>& hot_rows,
                             double alpha) {
  ATNN_CHECK(rate_rps > 0.0 && !hot_rows.empty());
  Schedule schedule;
  const size_t expected = static_cast<size_t>(rate_rps * seconds * 1.1) + 16;
  schedule.due_ns.reserve(expected);
  schedule.rows.reserve(expected);
  double t = 0.0;
  for (;;) {
    t += rng->Exponential(rate_rps);
    if (t >= seconds) break;
    schedule.due_ns.push_back(static_cast<int64_t>(t * 1e9));
    schedule.rows.push_back(hot_rows[rng->Zipf(hot_rows.size(), alpha)]);
  }
  return schedule;
}

OpenLoop::OpenLoop(const Config& config, const Schedule* schedule)
    : config_(config), schedule_(schedule) {
  ATNN_CHECK(config_.runtime != nullptr && config_.tracer != nullptr);
  outcomes_.resize(schedule_->rows.size());
  futures_.resize(schedule_->rows.size());
  span_request_ = config_.tracer->Intern("request");
  span_score_async_ = config_.tracer->Intern("runtime.ScoreAsync");
  span_await_ = config_.tracer->Intern("runtime.await");
}

OpenLoop::~OpenLoop() { Join(); }

void OpenLoop::Start(Clock::time_point start) {
  start_ = start;
  collector_ = std::thread([this] { Collect(); });
  generator_ = std::thread([this] { Generate(); });
}

void OpenLoop::Join() {
  if (generator_.joinable()) generator_.join();
  if (collector_.joinable()) collector_.join();
}

void OpenLoop::Generate() {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Tracer* tracer = config_.tracer;
  Tracer::Buffer* buffer = tracer->NewBuffer();
  if (tracer->enabled()) buffer->Reserve(outcomes_.size());
  runtime::InferenceRuntime* runtime = config_.runtime;
  const size_t n = outcomes_.size();
  for (size_t i = 0; i < n; ++i) {
    Outcome& outcome = outcomes_[i];
    outcome.due = start_ + std::chrono::nanoseconds(schedule_->due_ns[i]);
    outcome.row = schedule_->rows[i];
    WaitUntil(outcome.due);
    outcome.sent = Clock::now();
    futures_[i] = runtime->ScoreAsync(outcome.row);
    outcome.returned = Clock::now();
    if (tracer->enabled()) {
      outcome.span = tracer->NewId();
      tracer->Record(buffer, span_score_async_, config_.first_request + i,
                     outcome.span, outcome.sent, outcome.returned);
    }
    issued_.store(i + 1, std::memory_order_release);
    issued_.notify_one();
  }
}

void OpenLoop::Collect() {
  Tracer* tracer = config_.tracer;
  Tracer::Buffer* buffer = tracer->NewBuffer();
  if (tracer->enabled()) buffer->Reserve(2 * outcomes_.size());
  const size_t n = outcomes_.size();
  for (size_t i = 0; i < n; ++i) {
    // Blocks rather than polls: a collector polling every 20 us would wake
    // up to 50,000 times a second and take time from whichever thread
    // shares its vCPU.
    for (size_t issued = issued_.load(std::memory_order_acquire);
         issued <= i; issued = issued_.load(std::memory_order_acquire)) {
      issued_.wait(issued, std::memory_order_acquire);
    }
    Outcome& outcome = outcomes_[i];
    futures_[i].wait();
    outcome.done = Clock::now();
    StatusOr<runtime::ScoreResult> result = futures_[i].get();
    futures_[i] = {};
    if (result.ok()) {
      outcome.ok = true;
      outcome.score = result.value().score;
      outcome.version = result.value().snapshot_version;
      outcome.tier = result.value().tier;
    }
    if (tracer->enabled()) {
      const uint64_t request = config_.first_request + i;
      tracer->Record(buffer, span_await_, request, outcome.span,
                     outcome.returned, outcome.done);
      tracer->RecordWithId(buffer, outcome.span, span_request_, request, 0,
                           outcome.due, outcome.done);
    }
  }
}

int64_t BacklogAt(const std::vector<Outcome>& outcomes, Clock::time_point t) {
  int64_t backlog = 0;
  for (const Outcome& outcome : outcomes) {
    if (outcome.sent <= t && outcome.done > t) ++backlog;
  }
  return backlog;
}

int64_t MedianBacklog(const std::vector<Outcome>& outcomes,
                      Clock::time_point from, Clock::time_point to) {
  std::vector<double> samples;
  for (int i = 1; i <= 10; ++i) {
    samples.push_back(static_cast<double>(
        BacklogAt(outcomes, from + (to - from) * i / 10)));
  }
  return static_cast<int64_t>(Median(&samples));
}

}  // namespace atnn::perfbench
