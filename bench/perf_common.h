#ifndef ATNN_BENCH_PERF_COMMON_H_
#define ATNN_BENCH_PERF_COMMON_H_

// What the perf benches (bench_kernels, bench_compiled, bench_quantized,
// bench_streaming, bench_runtime_throughput, bench_sharded_serving and
// bench_training_throughput) share. They only measure: their correctness
// gates are labelled tests. What is left here goes with them once the
// repo benchmark (perfbench/) reports what they measure.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/sharded_runtime.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/tmall.h"

namespace atnn::bench {

/// A flat JSON object of named numbers, for dashboards.
struct JsonWriter {
  std::string body;
  void Add(const std::string& key, double value) {
    body += (body.empty() ? "" : ",\n") + std::string("  \"") + key +
            "\": " + std::to_string(value);
  }
  bool Flush(const std::string& path) {
    std::ofstream out(path, std::ios::trunc);
    out << "{\n" << body << "\n}\n";
    return out.good();
  }
};

/// Prints one PASS or FAIL line per gate; the bench exits with
/// exit_code().
class Gates {
 public:
  void Check(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS:" : "FAIL:", what.c_str());
    if (!ok) ++failures_;
  }
  int exit_code() const { return failures_ == 0 ? 0 : 1; }

 private:
  int failures_ = 0;
};

/// One request per distinct simulated user: user u's RNG stream is forked
/// from its id, and its item choice is the usual head-heavy Zipf draw.
/// Distinct users defeat any request-level memoization above the runtime;
/// only the item distribution is skewed.
inline std::vector<int64_t> MakeUserReplay(const data::TmallDataset& dataset,
                                           int64_t num_users) {
  std::vector<int64_t> stream;
  stream.reserve(static_cast<size_t>(num_users));
  Rng base(777);
  for (int64_t user = 0; user < num_users; ++user) {
    Rng rng = base.Fork(static_cast<uint64_t>(user));
    stream.push_back(
        dataset.new_items[rng.Zipf(dataset.new_items.size(), 1.1)]);
  }
  return stream;
}

/// Rows per ScoreBatch call of a replay: the request-batch shape a gateway
/// hands the front-end. Deliberately not a multiple of the shard batch
/// size, which a gateway does not align its chunks to.
inline constexpr size_t kReplayChunk = 1000;

struct ReplayOutcome {
  int64_t errors = 0;  // answers that came back a Status
  double wall_s = 0.0;
  /// The worst fresh-tier p99 (us) any single shard imposed.
  double worst_shard_p99_us = 0.0;
};

/// Scores `stream` in kReplayChunk-row batches through `score_batch` (a
/// ShardedRuntime's or a tenant's ScoreBatch), then reads the worst
/// per-shard fresh-tier p99 off `runtime`.
template <typename ScoreBatchFn>
ReplayOutcome ReplayInChunks(const std::vector<int64_t>& stream,
                             const cluster::ShardedRuntime& runtime,
                             ScoreBatchFn&& score_batch) {
  ReplayOutcome outcome;
  Stopwatch timer;
  for (size_t begin = 0; begin < stream.size(); begin += kReplayChunk) {
    const size_t end = std::min(begin + kReplayChunk, stream.size());
    const std::vector<int64_t> chunk(stream.begin() + begin,
                                     stream.begin() + end);
    for (const auto& result : score_batch(chunk)) {
      if (!result.ok()) ++outcome.errors;
    }
  }
  outcome.wall_s = timer.ElapsedSeconds();
  for (size_t s = 0; s < runtime.num_shards(); ++s) {
    outcome.worst_shard_p99_us =
        std::max(outcome.worst_shard_p99_us,
                 runtime.shard(s).stats().fresh_latency_us.Percentile(0.99));
  }
  return outcome;
}

inline ReplayOutcome ReplayInChunks(const std::vector<int64_t>& stream,
                                    cluster::ShardedRuntime& runtime) {
  return ReplayInChunks(stream, runtime,
                        [&runtime](const std::vector<int64_t>& chunk) {
                          return runtime.ScoreBatch(chunk);
                        });
}

}  // namespace atnn::bench

#endif  // ATNN_BENCH_PERF_COMMON_H_
