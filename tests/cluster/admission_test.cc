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

CircuitBreakerConfig SmallBreakerConfig() {
  CircuitBreakerConfig config;
  config.error_rate_threshold = 0.5;
  config.ewma_alpha = 0.5;
  config.min_samples = 4;
  config.cooldown_ms = 100;
  config.probes_to_close = 2;
  return config;
}

TEST(CircuitBreakerTest, ConfigValidation) {
  EXPECT_TRUE(CircuitBreakerConfig{}.Validate().ok());
  CircuitBreakerConfig config;
  config.error_rate_threshold = 0.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = {};
  config.ewma_alpha = 1.5;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = {};
  config.min_samples = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = {};
  config.cooldown_ms = -1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = {};
  config.probes_to_close = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(CircuitBreakerTest, StartsClosedAndStaysClosedOnSuccess) {
  CircuitBreaker breaker(SmallBreakerConfig());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
  for (int i = 0; i < 100; ++i) breaker.RecordResultAt(true, T0());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.error_rate(), 0.0);
}

TEST(CircuitBreakerTest, OpensOnSustainedErrorsButNotBeforeMinSamples) {
  CircuitBreaker breaker(SmallBreakerConfig());
  breaker.RecordResultAt(false, T0());
  breaker.RecordResultAt(false, T0());
  breaker.RecordResultAt(false, T0());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed)
      << "three failures are below min_samples=4";
  breaker.RecordResultAt(false, T0());
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, OccasionalErrorsDoNotTrip) {
  CircuitBreakerConfig config = SmallBreakerConfig();
  config.ewma_alpha = 0.1;
  // 10% error rate against a 50% threshold: never opens.
  CircuitBreaker steady(config);
  for (int i = 0; i < 200; ++i) {
    steady.RecordResultAt(/*ok=*/i % 10 != 0, T0());
  }
  EXPECT_EQ(steady.state(), BreakerState::kClosed);
  EXPECT_LT(steady.error_rate(), 0.3);
}

TEST(CircuitBreakerTest, ProbeBeforeCooldownIsIgnored) {
  CircuitBreaker breaker(SmallBreakerConfig());
  for (int i = 0; i < 4; ++i) breaker.RecordResultAt(false, T0());
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.RecordProbeAt(true, T0() + milliseconds(50));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen)
      << "a probe inside the 100ms cooldown must not move the breaker";
}

TEST(CircuitBreakerTest, ClosesAfterConsecutiveProbeSuccesses) {
  CircuitBreaker breaker(SmallBreakerConfig());
  for (int i = 0; i < 4; ++i) breaker.RecordResultAt(false, T0());
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  breaker.RecordProbeAt(true, T0() + milliseconds(150));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest())
      << "half-open still sheds serving traffic; only probes flow";
  breaker.RecordProbeAt(true, T0() + milliseconds(200));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.error_rate(), 0.0) << "a close wipes the error history";
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopensAndRestartsCooldown) {
  CircuitBreaker breaker(SmallBreakerConfig());
  for (int i = 0; i < 4; ++i) breaker.RecordResultAt(false, T0());
  breaker.RecordProbeAt(true, T0() + milliseconds(150));
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);

  breaker.RecordProbeAt(false, T0() + milliseconds(200));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // The cooldown restarted at 200ms: a probe at 250ms is still ignored,
  // one at 310ms is admitted.
  breaker.RecordProbeAt(true, T0() + milliseconds(250));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.RecordProbeAt(true, T0() + milliseconds(310));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, ForceOpenSkipsTheCooldown) {
  CircuitBreaker breaker(SmallBreakerConfig());
  breaker.ForceOpenAt(T0());
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  // The very next probe is admitted into half-open: rebuilt shards re-earn
  // admission through probes without sitting out the flap cooldown.
  breaker.RecordProbeAt(true, T0());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordProbeAt(true, T0());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ClosedStateProbesFeedTheErrorRate) {
  CircuitBreaker breaker(SmallBreakerConfig());
  for (int i = 0; i < 4; ++i) breaker.RecordProbeAt(false, T0());
  EXPECT_EQ(breaker.state(), BreakerState::kOpen)
      << "probe failures alone must be able to trip a closed breaker";
}

TEST(CircuitBreakerTest, ReopenAfterCloseNeedsFreshSamples) {
  CircuitBreaker breaker(SmallBreakerConfig());
  for (int i = 0; i < 4; ++i) breaker.RecordResultAt(false, T0());
  breaker.RecordProbeAt(true, T0() + milliseconds(150));
  breaker.RecordProbeAt(true, T0() + milliseconds(160));
  ASSERT_EQ(breaker.state(), BreakerState::kClosed);
  // Post-close, min_samples protects the fresh state again.
  breaker.RecordResultAt(false, T0() + milliseconds(170));
  breaker.RecordResultAt(false, T0() + milliseconds(171));
  breaker.RecordResultAt(false, T0() + milliseconds(172));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordResultAt(false, T0() + milliseconds(173));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, OneFeedOfManyOutcomesEqualsOneFeedPerOutcome) {
  // Successes, failures that open the breaker part-way, then a mix the open
  // breaker still folds into its error rate.
  std::vector<char> outcomes(6, 1);
  outcomes.insert(outcomes.end(), 3, 0);
  for (int i = 0; i < 7; ++i) outcomes.push_back(static_cast<char>(i % 2));
  CircuitBreaker per_outcome(SmallBreakerConfig());
  size_t opened_after = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    per_outcome.RecordResultAt(outcomes[i] != 0, T0());
    if (opened_after == 0 && per_outcome.state() == BreakerState::kOpen) {
      opened_after = i + 1;
    }
  }
  ASSERT_GT(opened_after, 0u);
  ASSERT_LT(opened_after, outcomes.size()) << "must open part-way";

  CircuitBreaker one_feed(SmallBreakerConfig());
  one_feed.RecordResultsAt(outcomes, T0());
  EXPECT_EQ(one_feed.state(), per_outcome.state());
  EXPECT_EQ(one_feed.error_rate(), per_outcome.error_rate());
  // Both opened at T0, so both leave the cooldown at the same probe.
  per_outcome.RecordProbeAt(true, T0() + milliseconds(150));
  one_feed.RecordProbeAt(true, T0() + milliseconds(150));
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
