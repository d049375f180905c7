#include "common/retry.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace atnn {
namespace {

// Collects requested sleeps instead of blocking, so backoff schedules are
// asserted exactly and tests run in microseconds.
struct FakeSleeper {
  std::vector<int64_t> slept_ms;
  std::function<void(int64_t)> Fn() {
    return [this](int64_t ms) { slept_ms.push_back(ms); };
  }
};

TEST(RetryTest, SucceedsFirstTryWithoutSleeping) {
  FakeSleeper sleeper;
  int calls = 0;
  const Status status = RetryWithBackoff(
      [&] {
        ++calls;
        return Status::OK();
      },
      sleeper.Fn());
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeper.slept_ms.empty());
}

TEST(RetryTest, RecoversAfterTransientFailures) {
  FakeSleeper sleeper;
  int calls = 0;
  const Status status = RetryWithBackoff(
      [&] {
        ++calls;
        return calls < 3 ? Status::Unavailable("warming up") : Status::OK();
      },
      sleeper.Fn());
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeper.slept_ms, (std::vector<int64_t>{10, 20}));
}

TEST(RetryTest, NonRetriableErrorFailsFast) {
  FakeSleeper sleeper;
  int calls = 0;
  const Status status = RetryWithBackoff(
      [&] {
        ++calls;
        return Status::InvalidArgument("never going to work");
      },
      sleeper.Fn());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeper.slept_ms.empty());
}

TEST(RetryTest, ExhaustsAttemptsAndReturnsLastError) {
  FakeSleeper sleeper;
  int calls = 0;
  const Status status = RetryWithBackoff(
      [&] {
        ++calls;
        return Status::IoError("flaky disk");
      },
      sleeper.Fn());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(status.message(), "flaky disk");
  EXPECT_EQ(calls, 3);
  // No sleep after the final attempt.
  EXPECT_EQ(sleeper.slept_ms, (std::vector<int64_t>{10, 20}));
}

TEST(RetryTest, RealSleepPathWorks) {
  // Default sleeper: one real 10 ms backoff proves the non-injected branch
  // functions end to end.
  int calls = 0;
  const Status status = RetryWithBackoff([&] {
    ++calls;
    return calls < 2 ? Status::Unavailable("once") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace atnn
