#ifndef ATNN_CLUSTER_ADMISSION_H_
#define ATNN_CLUSTER_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>

namespace atnn::cluster {

/// Token-bucket rate limiter backing per-tenant admission quotas. Tokens
/// accrue continuously at `rate_per_s` up to `burst`; TryAcquire grants as
/// many of the requested tokens as the bucket holds (partial grants let a
/// batch split into an admitted head and a shed tail instead of failing
/// whole). rate_per_s <= 0 means unlimited — every acquire is granted in
/// full, with no clock reads.
///
/// Thread-safe. The *At variants take an explicit timestamp so tests drive
/// time deterministically; the plain variants read the steady clock.
class TokenBucket {
 public:
  using Clock = std::chrono::steady_clock;

  /// `burst` <= 0 defaults the bucket depth to one second of rate (or 1,
  /// whichever is larger), so a default-constructed quota still admits
  /// request bursts up to its sustained rate.
  TokenBucket(double rate_per_s, double burst);

  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  /// Grants min(want, floor(available tokens)) and deducts them.
  int64_t TryAcquire(int64_t want);
  int64_t TryAcquireAt(int64_t want, Clock::time_point now);

  bool unlimited() const { return rate_per_s_ <= 0.0; }
  double rate_per_s() const { return rate_per_s_; }
  double burst() const { return burst_; }

 private:
  const double rate_per_s_;
  const double burst_;

  std::mutex mutex_;
  double tokens_;
  bool primed_ = false;  // first acquire anchors the refill clock
  Clock::time_point last_refill_{};
};

/// Circuit-breaker state machine guarding one shard:
///
///   kClosed ──(EWMA error rate >= kErrorRateThreshold,
///              over >= kMinSamples results)──> kOpen
///   kOpen ──(probe arrives after kCooldown)──> kHalfOpen
///   kHalfOpen ──(kProbesToClose consecutive probe successes)──> kClosed
///   kHalfOpen ──(any probe failure)──> kOpen (cooldown restarts)
///
/// While open or half-open, AllowRequest() is false: the serving path sheds
/// that shard's traffic to the front-end fallback instead of spending its
/// deadline budget on a sick shard. Only probe traffic (the supervisor's
/// synthetic requests) moves the breaker back toward closed — the
/// "half-open via probe traffic" admission contract.
enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* BreakerStateToString(BreakerState state);

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  /// EWMA error rate at which the breaker opens.
  static constexpr double kErrorRateThreshold = 0.5;
  /// EWMA smoothing: new_rate = (1-alpha)*old + alpha*outcome.
  static constexpr double kEwmaAlpha = 0.2;
  /// Results observed before the error rate is trusted enough to open —
  /// one early hiccup on a fresh breaker must not trip it.
  static constexpr int64_t kMinSamples = 20;
  /// Open -> half-open is gated on this much wall time elapsing before a
  /// probe arrives.
  static constexpr std::chrono::milliseconds kCooldown{500};
  /// Consecutive half-open probe successes required to close.
  static constexpr int kProbesToClose = 3;

  CircuitBreaker() = default;

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// True iff closed. Lock-free (one relaxed load) — this is on the
  /// scatter path for every request.
  bool AllowRequest() const {
    return state_.load(std::memory_order_relaxed) ==
           static_cast<int>(BreakerState::kClosed);
  }

  /// Feeds one serving-path outcome into the EWMA; may open the breaker.
  void RecordResultAt(bool ok, Clock::time_point now);

  /// Feeds a sequence of outcomes (nonzero = ok) under one lock: the same
  /// EWMA steps, in order, as RecordResultAt per outcome at one `now`, so a
  /// breaker that opens part-way keeps counting the rest.
  void RecordResults(std::span<const char> ok);
  void RecordResultsAt(std::span<const char> ok, Clock::time_point now);

  /// Feeds one probe outcome. Drives open -> half-open (after cooldown)
  /// and half-open -> closed/open; in the closed state a probe outcome is
  /// just another result.
  void RecordProbe(bool ok);
  void RecordProbeAt(bool ok, Clock::time_point now);

  /// Trips the breaker by fiat with the cooldown already elapsed: the next
  /// probe moves it straight to half-open. Used for freshly rebuilt shards
  /// — they must be re-admitted only after passing probes, but should not
  /// sit out a cooldown that exists to rate-limit flapping, not rebuilds.
  void ForceOpen();
  void ForceOpenAt(Clock::time_point now);

  BreakerState state() const {
    return static_cast<BreakerState>(state_.load(std::memory_order_relaxed));
  }
  double error_rate() const;

 private:
  void RecordResultLocked(bool ok, Clock::time_point now);
  void OpenLocked(Clock::time_point opened_at);

  std::atomic<int> state_{static_cast<int>(BreakerState::kClosed)};

  mutable std::mutex mutex_;
  double ewma_error_rate_ = 0.0;
  int64_t samples_ = 0;
  int probe_successes_ = 0;
  Clock::time_point opened_at_{};
};

}  // namespace atnn::cluster

#endif  // ATNN_CLUSTER_ADMISSION_H_
