#include "cluster/admission.h"

#include <algorithm>
#include <cmath>

namespace atnn::cluster {

TokenBucket::TokenBucket(double rate_per_s, double burst)
    : rate_per_s_(rate_per_s),
      burst_(burst > 0.0 ? burst : std::max(rate_per_s, 1.0)),
      tokens_(burst_) {}

int64_t TokenBucket::TryAcquire(int64_t want) {
  if (unlimited()) return want;  // skip the clock read entirely
  return TryAcquireAt(want, Clock::now());
}

int64_t TokenBucket::TryAcquireAt(int64_t want, Clock::time_point now) {
  if (unlimited()) return want;
  if (want <= 0) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!primed_) {
    // Anchor refill to the first acquire, not construction: a bucket built
    // at process start must not bank an arbitrary setup interval as burst.
    primed_ = true;
    last_refill_ = now;
  } else if (now > last_refill_) {
    const double elapsed_s =
        std::chrono::duration<double>(now - last_refill_).count();
    tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_per_s_);
    last_refill_ = now;
  }
  const int64_t granted =
      std::min<int64_t>(want, static_cast<int64_t>(std::floor(tokens_)));
  if (granted > 0) tokens_ -= static_cast<double>(granted);
  return granted;
}

const char* BreakerStateToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

void CircuitBreaker::RecordResultAt(bool ok, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  RecordResultLocked(ok, now);
}

void CircuitBreaker::RecordResults(std::span<const char> ok) {
  RecordResultsAt(ok, Clock::now());
}

void CircuitBreaker::RecordResultsAt(std::span<const char> ok,
                                     Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const char outcome : ok) RecordResultLocked(outcome != 0, now);
}

void CircuitBreaker::RecordResultLocked(bool ok, Clock::time_point now) {
  ewma_error_rate_ =
      (1.0 - kEwmaAlpha) * ewma_error_rate_ + kEwmaAlpha * (ok ? 0.0 : 1.0);
  ++samples_;
  if (state() == BreakerState::kClosed && samples_ >= kMinSamples &&
      ewma_error_rate_ >= kErrorRateThreshold) {
    OpenLocked(now);
  }
}

void CircuitBreaker::OpenLocked(Clock::time_point opened_at) {
  state_.store(static_cast<int>(BreakerState::kOpen),
               std::memory_order_relaxed);
  opened_at_ = opened_at;
  probe_successes_ = 0;
}

void CircuitBreaker::RecordProbe(bool ok) { RecordProbeAt(ok, Clock::now()); }

void CircuitBreaker::RecordProbeAt(bool ok, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state()) {
    case BreakerState::kClosed:
      // Probe traffic in the closed state is just another observation —
      // the supervisor's probes keep the EWMA warm on idle shards.
      RecordResultLocked(ok, now);
      return;
    case BreakerState::kOpen:
      if (now - opened_at_ < kCooldown) {
        return;  // still cooling down: the probe outcome is not admitted
      }
      state_.store(static_cast<int>(BreakerState::kHalfOpen),
                   std::memory_order_relaxed);
      probe_successes_ = 0;
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      if (!ok) {
        // One failed probe re-opens: a half-recovered shard must re-earn
        // trust from the start of the cooldown.
        OpenLocked(now);
        return;
      }
      if (++probe_successes_ >= kProbesToClose) {
        state_.store(static_cast<int>(BreakerState::kClosed),
                     std::memory_order_relaxed);
        // The error history belongs to the pre-trip instance of the shard
        // (or to its corpse): a close is a clean slate, re-protected by
        // kMinSamples before it can trip again.
        ewma_error_rate_ = 0.0;
        samples_ = 0;
        probe_successes_ = 0;
      }
      return;
  }
}

void CircuitBreaker::ForceOpen() { ForceOpenAt(Clock::now()); }

void CircuitBreaker::ForceOpenAt(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Backdate past the cooldown: the first probe against the rebuilt shard
  // immediately enters the half-open evaluation window.
  OpenLocked(now - kCooldown - std::chrono::milliseconds(1));
}

double CircuitBreaker::error_rate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ewma_error_rate_;
}

}  // namespace atnn::cluster
