#ifndef ATNN_COMMON_RETRY_H_
#define ATNN_COMMON_RETRY_H_

#include <cstdint>
#include <functional>

#include "common/status.h"

namespace atnn {

/// Runs `op` until it returns OK, a non-retriable status (see IsRetriable),
/// or its third attempt fails; sleeps 10 ms after the first failure and
/// 20 ms after the second. Returns the last status observed. `sleep_ms`
/// exists so tests can capture the schedule instead of actually sleeping;
/// the default is std::this_thread::sleep_for.
///
/// Intended for transient snapshot publish/load failures (an NFS blip, a
/// checkpoint mid-write, the runtime's queue momentarily full) — the
/// operations around a serving hot-swap that must not give up on the first
/// hiccup but also must not spin on a corrupt file forever.
Status RetryWithBackoff(
    const std::function<Status()>& op,
    const std::function<void(int64_t)>& sleep_ms = nullptr);

}  // namespace atnn

#endif  // ATNN_COMMON_RETRY_H_
