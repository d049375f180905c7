#include "cluster/shard_supervisor.h"

#include <chrono>
#include <utility>

#include "common/macros.h"
#include "common/retry.h"
#include "common/rng.h"

namespace atnn::cluster {

const char* ShardHealthToString(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kSuspect:
      return "suspect";
    case ShardHealth::kDead:
      return "dead";
    case ShardHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

// A shard must be able to look suspect before it is condemned.
static_assert(ShardSupervisor::kConsecutiveToDead >
              ShardSupervisor::kConsecutiveToSuspect);
// A shard must not read healthy while its breaker still sheds: the probes
// that walk a rebuilt shard to healthy also walk its breaker closed.
static_assert(ShardSupervisor::kProbesToHealthy >=
              CircuitBreaker::kProbesToClose);

ShardSupervisor::ShardSupervisor(ShardedRuntime* runtime, uint64_t seed)
    : runtime_(runtime),
      seed_(seed),
      probes_(registry_.GetCounter("supervisor.probes")),
      probe_failures_(registry_.GetCounter("supervisor.probe_failures")),
      transitions_(registry_.GetCounter("supervisor.transitions")),
      rebuilds_(registry_.GetCounter("supervisor.rebuilds")),
      rebuild_failures_(registry_.GetCounter("supervisor.rebuild_failures")),
      healthy_shards_(registry_.GetGauge("supervisor.healthy_shards")),
      dead_shards_(registry_.GetGauge("supervisor.dead_shards")) {
  ATNN_CHECK(runtime_ != nullptr) << "ShardSupervisor needs a runtime";
}

ShardSupervisor::~ShardSupervisor() { Stop(); }

void ShardSupervisor::Start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread(&ShardSupervisor::Run, this);
}

void ShardSupervisor::Stop() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  wake_.notify_all();
  thread_.join();
  thread_ = std::thread();
}

void ShardSupervisor::Run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Step();
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_.wait_for(lock, kProbePeriod,
                   [this] { return stop_.load(std::memory_order_relaxed); });
  }
}

size_t ShardSupervisor::Step() {
  std::lock_guard<std::mutex> lock(step_mutex_);
  // Resize-aware: re-read the shard count every round. Shards added by a
  // grow start healthy (their breakers are closed and their slices were
  // published before they became routable); state for removed shards is
  // dropped.
  const size_t n = runtime_->num_shards();
  shards_.resize(n);
  ++round_;
  for (size_t i = 0; i < n; ++i) {
    ProbeAndAdvance(i, &shards_[i]);
  }
  int64_t healthy = 0;
  int64_t dead = 0;
  for (const ShardState& state : shards_) {
    if (state.health == ShardHealth::kHealthy) ++healthy;
    if (state.health == ShardHealth::kDead) ++dead;
  }
  healthy_shards_.Set(static_cast<double>(healthy));
  dead_shards_.Set(static_cast<double>(dead));
  return n;
}

void ShardSupervisor::ProbeAndAdvance(size_t i, ShardState* state) {
  // Decorrelated per (round, shard): consecutive rounds probe different
  // rows of the slice, so a single poisoned row cannot condemn a shard by
  // being the only one ever sampled.
  const uint64_t salt = HashCombine(seed_, round_ * 0x100000001b3ULL + i);
  const ProbeReport report = runtime_->ProbeShard(i, salt);
  probes_.Increment();

  if (report.healthy()) {
    state->ewma_latency_us =
        state->ewma_latency_us == 0.0
            ? report.latency_us
            : (1.0 - kLatencyEwmaAlpha) * state->ewma_latency_us +
                  kLatencyEwmaAlpha * report.latency_us;
    state->consecutive_failures = 0;
    ++state->consecutive_healthy;
    switch (state->health) {
      case ShardHealth::kHealthy:
        break;
      case ShardHealth::kSuspect:
        // One good probe clears a suspicion — suspect exists to debounce,
        // not to punish.
        Transition(i, state, ShardHealth::kHealthy);
        break;
      case ShardHealth::kDead:
        // Something outside the supervisor revived it (an operator rebuild
        // after the supervisor's own failed): it still re-earns healthy
        // through probation.
        Transition(i, state, ShardHealth::kRecovering);
        [[fallthrough]];
      case ShardHealth::kRecovering:
        if (state->consecutive_healthy >= kProbesToHealthy) {
          Transition(i, state, ShardHealth::kHealthy);
        }
        break;
    }
    return;
  }

  probe_failures_.Increment();
  state->consecutive_healthy = 0;
  ++state->consecutive_failures;
  switch (state->health) {
    case ShardHealth::kHealthy:
      if (state->consecutive_failures >= kConsecutiveToSuspect) {
        Transition(i, state, ShardHealth::kSuspect);
      }
      break;
    case ShardHealth::kSuspect:
    case ShardHealth::kRecovering:
      if (state->consecutive_failures >= kConsecutiveToDead) {
        Transition(i, state, ShardHealth::kDead);
      }
      break;
    case ShardHealth::kDead:
      break;
  }
  if (state->health == ShardHealth::kDead) {
    // First entry and every later round while still dead: a rebuild that
    // failed (snapshot store blip) is retried next round, paced by the
    // probe period on top of the per-call retry schedule.
    Rebuild(i, state);
  }
}

void ShardSupervisor::Transition(size_t shard, ShardState* state,
                                 ShardHealth to) {
  (void)shard;
  if (state->health == to) return;
  state->health = to;
  transitions_.Increment();
}

void ShardSupervisor::Rebuild(size_t shard, ShardState* state) {
  rebuilds_.Increment();
  const Status status = RetryWithBackoff(
      [this, shard] { return runtime_->RebuildShard(shard); });
  if (!status.ok()) {
    // Stays dead; the next round tries again.
    rebuild_failures_.Increment();
    return;
  }
  // The rebuilt shard serves nothing yet — RebuildShard force-opened its
  // breaker — so it is recovering, not healthy, until probes walk the
  // breaker closed and kProbesToHealthy fresh answers land here.
  Transition(shard, state, ShardHealth::kRecovering);
  state->consecutive_failures = 0;
  state->consecutive_healthy = 0;
}

ShardHealth ShardSupervisor::health(size_t shard) const {
  std::lock_guard<std::mutex> lock(step_mutex_);
  if (shard >= shards_.size()) return ShardHealth::kHealthy;
  return shards_[shard].health;
}

double ShardSupervisor::probe_latency_us(size_t shard) const {
  std::lock_guard<std::mutex> lock(step_mutex_);
  if (shard >= shards_.size()) return 0.0;
  return shards_[shard].ewma_latency_us;
}

obs::MetricsSnapshot ShardSupervisor::Collect() const {
  return registry_.Collect();
}

}  // namespace atnn::cluster
