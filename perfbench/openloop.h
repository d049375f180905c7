#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

// Open-loop load: single-row InferenceRuntime::ScoreAsync requests sent on
// a precomputed Poisson schedule, whatever the runtime's state. One
// generator thread sends, one collector thread awaits the answers in send
// order. Every request is timed from when it
// was due, so a stall also charges the requests queued behind it.

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/inference_runtime.h"
#include "trace.h"

namespace atnn::perfbench {

struct Schedule {
  std::vector<int64_t> due_ns;  // offsets from the loop's start
  std::vector<int64_t> rows;
};

/// Poisson arrivals at `rate_rps` for `seconds`; rows Zipf(alpha) over
/// `hot_rows` (rank 0 is hot_rows[0]).
Schedule PoissonZipfSchedule(Rng* rng, double rate_rps, double seconds,
                             const std::vector<int64_t>& hot_rows,
                             double alpha);

/// One request as observed from outside the runtime.
struct Outcome {
  Clock::time_point due;
  Clock::time_point sent;      // ScoreAsync called
  Clock::time_point returned;  // ScoreAsync returned
  Clock::time_point done;      // answer received
  int64_t row = 0;
  double score = 0.0;
  uint64_t version = 0;
  runtime::ServingTier tier = runtime::ServingTier::kFresh;
  bool ok = false;
  uint64_t span = 0;  // root span id when traced
};

class OpenLoop {
 public:
  struct Config {
    runtime::InferenceRuntime* runtime = nullptr;
    Tracer* tracer = nullptr;
    /// Request ids of this loop start here (spans of one request share it).
    uint64_t first_request = 0;
  };

  OpenLoop(const Config& config, const Schedule* schedule);
  ~OpenLoop();

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Starts sending at `start` (the schedule's time zero).
  void Start(Clock::time_point start);
  /// Waits until every request was sent and answered.
  void Join();

  Clock::time_point start() const { return start_; }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }

 private:
  void Generate();
  void Collect();

  Config config_;
  const Schedule* schedule_;
  Clock::time_point start_;
  std::vector<Outcome> outcomes_;
  std::vector<std::future<StatusOr<runtime::ScoreResult>>> futures_;
  std::atomic<size_t> issued_{0};
  uint16_t span_request_ = 0;
  uint16_t span_score_async_ = 0;
  uint16_t span_await_ = 0;
  // Declared last: both threads use the members above.
  std::thread generator_;
  std::thread collector_;
};

/// Requests sent at or before `t` and not yet answered at `t`.
int64_t BacklogAt(const std::vector<Outcome>& outcomes, Clock::time_point t);

/// Median BacklogAt over ten instants spread across [from, to].
int64_t MedianBacklog(const std::vector<Outcome>& outcomes,
                      Clock::time_point from, Clock::time_point to);

/// Open-loop outcomes counted against the requests attempted.
struct Tally {
  int64_t attempted = 0;
  int64_t fresh_in_slo = 0;  // fresh, correct, within the latency limit
  int64_t errors = 0;        // error statuses
  int64_t degraded = 0;      // answered by a non-fresh tier
  int64_t wrong = 0;         // fresh, but not the reference score
  std::vector<double> latency_us;  // from due time, every request
  std::vector<double> late_us;     // sent minus due, every request
  std::vector<char> in_slo;        // fresh, correct and in time

  int64_t failed() const { return errors + degraded + wrong; }
};

/// `correct` judges a fresh answer against the reference.
template <typename CorrectFn>
Tally TallyOutcomes(const std::vector<Outcome>& outcomes, double slo_us,
                    CorrectFn correct) {
  Tally tally;
  tally.attempted = static_cast<int64_t>(outcomes.size());
  tally.latency_us.reserve(outcomes.size());
  tally.late_us.reserve(outcomes.size());
  tally.in_slo.reserve(outcomes.size());
  for (const Outcome& outcome : outcomes) {
    const double latency_us =
        std::chrono::duration<double, std::micro>(outcome.done - outcome.due)
            .count();
    tally.latency_us.push_back(latency_us);
    tally.late_us.push_back(
        std::chrono::duration<double, std::micro>(outcome.sent - outcome.due)
            .count());
    bool in_slo = false;
    if (!outcome.ok) {
      ++tally.errors;
    } else if (outcome.tier != runtime::ServingTier::kFresh) {
      ++tally.degraded;
    } else if (!correct(outcome)) {
      ++tally.wrong;
    } else if (latency_us <= slo_us) {
      ++tally.fresh_in_slo;
      in_slo = true;
    }
    tally.in_slo.push_back(in_slo ? 1 : 0);
  }
  return tally;
}

}  // namespace atnn::perfbench

#endif  // PERFBENCH_OPENLOOP_H_
