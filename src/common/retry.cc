#include "common/retry.h"

#include <chrono>
#include <thread>

namespace atnn {

namespace {

/// Total attempts, including the first one.
constexpr int kMaxAttempts = 3;
/// Sleep after the first failure; each later sleep doubles it.
constexpr int64_t kInitialBackoffMs = 10;

}  // namespace

Status RetryWithBackoff(const std::function<Status()>& op,
                        const std::function<void(int64_t)>& sleep_ms) {
  int64_t backoff_ms = kInitialBackoffMs;
  for (int attempt = 1;; ++attempt) {
    Status status = op();
    if (status.ok() || !IsRetriable(status.code()) ||
        attempt == kMaxAttempts) {
      return status;  // no sleep after the last try
    }
    if (sleep_ms != nullptr) {
      sleep_ms(backoff_ms);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    backoff_ms *= 2;
  }
}

}  // namespace atnn
