#include "cluster/admission.h"

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

namespace atnn::cluster {
namespace {

using Clock = TokenBucket::Clock;
using std::chrono::milliseconds;

Clock::time_point T0() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

TEST(TokenBucketTest, UnlimitedGrantsEverything) {
  TokenBucket bucket(0.0, 0.0);
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_EQ(bucket.TryAcquire(1 << 20), 1 << 20);
  EXPECT_EQ(bucket.TryAcquireAt(7, T0()), 7);
}

TEST(TokenBucketTest, BurstThenStarveThenRefill) {
  TokenBucket bucket(/*rate_per_s=*/100.0, /*burst=*/50.0);
  // The full burst is available up front...
  EXPECT_EQ(bucket.TryAcquireAt(50, T0()), 50);
  // ...then the bucket is dry at the same instant...
  EXPECT_EQ(bucket.TryAcquireAt(10, T0()), 0);
  // ...and 100ms later exactly 10 tokens have accrued (100/s * 0.1s).
  EXPECT_EQ(bucket.TryAcquireAt(99, T0() + milliseconds(100)), 10);
}

TEST(TokenBucketTest, PartialGrantSplitsABatch) {
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/8.0);
  EXPECT_EQ(bucket.TryAcquireAt(20, T0()), 8)
      << "a 20-row batch against 8 tokens admits 8, sheds 12";
}

TEST(TokenBucketTest, RefillIsCappedAtBurst) {
  TokenBucket bucket(/*rate_per_s=*/1000.0, /*burst=*/5.0);
  EXPECT_EQ(bucket.TryAcquireAt(5, T0()), 5);
  // An hour of idle time must bank at most `burst` tokens.
  EXPECT_EQ(bucket.TryAcquireAt(100, T0() + std::chrono::hours(1)), 5);
}

TEST(TokenBucketTest, FirstAcquireAnchorsTheClock) {
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/10.0);
  // The first call defines t=0; it must not credit time since construction.
  EXPECT_EQ(bucket.TryAcquireAt(100, T0() + std::chrono::hours(1)), 10);
}

TEST(TokenBucketTest, DefaultBurstIsOneSecondOfRate) {
  TokenBucket bucket(/*rate_per_s=*/250.0, /*burst=*/0.0);
  EXPECT_EQ(bucket.burst(), 250.0);
  TokenBucket slow(/*rate_per_s=*/0.25, /*burst=*/0.0);
  EXPECT_EQ(slow.burst(), 1.0) << "sub-1/s rates still admit one request";
}

TEST(TokenBucketTest, NonPositiveWantGrantsZero) {
  TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/10.0);
  EXPECT_EQ(bucket.TryAcquireAt(0, T0()), 0);
  EXPECT_EQ(bucket.TryAcquireAt(-3, T0()), 0);
}

constexpr int64_t kMinSamples = CircuitBreaker::kMinSamples;
constexpr int kProbesToClose = CircuitBreaker::kProbesToClose;
constexpr auto kCooldown = CircuitBreaker::kCooldown;

/// Opens `breaker` at T0 with exactly kMinSamples failures.
void Trip(CircuitBreaker* breaker) {
  for (int64_t i = 0; i < kMinSamples; ++i) {
    breaker->RecordResultAt(false, T0());
  }
  ASSERT_EQ(breaker->state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, StartsClosedAndStaysClosedOnSuccess) {
  CircuitBreaker breaker;
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
  for (int i = 0; i < 100; ++i) breaker.RecordResultAt(true, T0());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.error_rate(), 0.0);
}

TEST(CircuitBreakerTest, OpensOnSustainedErrorsButNotBeforeMinSamples) {
  CircuitBreaker breaker;
  for (int64_t i = 0; i + 1 < kMinSamples; ++i) {
    breaker.RecordResultAt(false, T0());
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed)
      << kMinSamples - 1 << " failures are below kMinSamples";
  EXPECT_GE(breaker.error_rate(), CircuitBreaker::kErrorRateThreshold);
  breaker.RecordResultAt(false, T0());
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, OccasionalErrorsDoNotTrip) {
  // 10% error rate against a 50% threshold: never opens.
  CircuitBreaker steady;
  for (int i = 0; i < 200; ++i) {
    steady.RecordResultAt(/*ok=*/i % 10 != 0, T0());
  }
  EXPECT_EQ(steady.state(), BreakerState::kClosed);
  EXPECT_LT(steady.error_rate(), 0.3);
}

TEST(CircuitBreakerTest, ProbeBeforeCooldownIsIgnored) {
  CircuitBreaker breaker;
  Trip(&breaker);
  breaker.RecordProbeAt(true, T0() + kCooldown / 2);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen)
      << "a probe inside the cooldown must not move the breaker";
}

TEST(CircuitBreakerTest, ClosesAfterConsecutiveProbeSuccesses) {
  CircuitBreaker breaker;
  Trip(&breaker);

  for (int probe = 1; probe < kProbesToClose; ++probe) {
    breaker.RecordProbeAt(true, T0() + kCooldown + milliseconds(100 * probe));
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen) << "probe " << probe;
    EXPECT_FALSE(breaker.AllowRequest())
        << "half-open still sheds serving traffic; only probes flow";
  }
  breaker.RecordProbeAt(true, T0() + kCooldown +
                                  milliseconds(100 * kProbesToClose));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.error_rate(), 0.0) << "a close wipes the error history";
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker breaker;
  Trip(&breaker);
  breaker.RecordProbeAt(true, T0() + kCooldown + milliseconds(100));
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);

  const auto reopened = T0() + kCooldown + milliseconds(200);
  breaker.RecordProbeAt(false, reopened);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // The cooldown restarted at the failed probe: a probe half a cooldown
  // later is still ignored, one just past a full cooldown is admitted.
  breaker.RecordProbeAt(true, reopened + kCooldown / 2);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.RecordProbeAt(true, reopened + kCooldown + milliseconds(100));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, ForceOpenSkipsTheCooldown) {
  CircuitBreaker breaker;
  breaker.ForceOpenAt(T0());
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  // The very next probe is admitted into half-open: rebuilt shards re-earn
  // admission through probes without sitting out the flap cooldown.
  breaker.RecordProbeAt(true, T0());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  for (int probe = 1; probe < kProbesToClose; ++probe) {
    breaker.RecordProbeAt(true, T0());
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ClosedStateProbesFeedTheErrorRate) {
  CircuitBreaker breaker;
  for (int64_t i = 0; i < kMinSamples; ++i) {
    breaker.RecordProbeAt(false, T0());
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen)
      << "probe failures alone must be able to trip a closed breaker";
}

TEST(CircuitBreakerTest, ReopenAfterCloseNeedsFreshSamples) {
  CircuitBreaker breaker;
  Trip(&breaker);
  const auto closed_at = T0() + kCooldown + milliseconds(100);
  for (int probe = 0; probe < kProbesToClose; ++probe) {
    breaker.RecordProbeAt(true, closed_at);
  }
  ASSERT_EQ(breaker.state(), BreakerState::kClosed);
  // Post-close, kMinSamples protects the fresh state again.
  for (int64_t i = 0; i + 1 < kMinSamples; ++i) {
    breaker.RecordResultAt(false, closed_at + milliseconds(i));
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordResultAt(false, closed_at + milliseconds(kMinSamples));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, OneFeedOfManyOutcomesEqualsOneFeedPerOutcome) {
  // Successes, failures that open the breaker part-way, then a mix the open
  // breaker still folds into its error rate.
  std::vector<char> outcomes(6, 1);
  outcomes.insert(outcomes.end(), kMinSamples - 6, 0);
  for (int i = 0; i < 7; ++i) outcomes.push_back(static_cast<char>(i % 2));
  CircuitBreaker per_outcome;
  size_t opened_after = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    per_outcome.RecordResultAt(outcomes[i] != 0, T0());
    if (opened_after == 0 && per_outcome.state() == BreakerState::kOpen) {
      opened_after = i + 1;
    }
  }
  ASSERT_GT(opened_after, 0u);
  ASSERT_LT(opened_after, outcomes.size()) << "must open part-way";

  CircuitBreaker one_feed;
  one_feed.RecordResultsAt(outcomes, T0());
  EXPECT_EQ(one_feed.state(), per_outcome.state());
  EXPECT_EQ(one_feed.error_rate(), per_outcome.error_rate());
  // Both opened at T0, so both leave the cooldown at the same probe.
  per_outcome.RecordProbeAt(true, T0() + kCooldown + milliseconds(100));
  one_feed.RecordProbeAt(true, T0() + kCooldown + milliseconds(100));
  EXPECT_EQ(one_feed.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(per_outcome.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, StateToString) {
  EXPECT_STREQ(BreakerStateToString(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateToString(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateToString(BreakerState::kHalfOpen), "half_open");
}

}  // namespace
}  // namespace atnn::cluster
