#ifndef ATNN_SERVING_MODEL_SNAPSHOT_H_
#define ATNN_SERVING_MODEL_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "nn/parameter.h"

namespace atnn::serving {

/// Serving-side model persistence: the trained ATNN is snapshotted by the
/// trainer and loaded by the online scorer (the paper's "real-time data
/// engine" deployment). Snapshots are versioned and tagged with the model
/// architecture so a scorer cannot load mismatched weights.
constexpr uint32_t kSnapshotFormatVersion = 1;

/// Writes `model`'s parameters to `path` with the given architecture tag
/// (e.g. "atnn-v1-d32"). Overwrites existing files.
Status SaveModelSnapshot(nn::Module* model, const std::string& path,
                         const std::string& model_tag);

/// Restores parameters into `model`. Fails with Corruption/InvalidArgument
/// if the file is damaged, the tag differs, or shapes mismatch; a failed
/// load leaves every parameter of `model` as it was.
Status LoadModelSnapshot(nn::Module* model, const std::string& path,
                         const std::string& expected_tag);

/// LoadModelSnapshot behind RetryWithBackoff: a checkpoint mid-write or an
/// NFS blip surfaces as a transient IoError and is retried on the backoff
/// schedule; Corruption/tag mismatches are permanent and fail on the first
/// attempt. The one loader every serving binary should use — a scorer
/// without retry turns a routine checkpoint rotation into a startup
/// failure. `sleep_ms` is the test seam from RetryWithBackoff.
Status LoadModelSnapshotWithRetry(
    nn::Module* model, const std::string& path,
    const std::string& expected_tag,
    const std::function<void(int64_t)>& sleep_ms = nullptr);

}  // namespace atnn::serving

#endif  // ATNN_SERVING_MODEL_SNAPSHOT_H_
