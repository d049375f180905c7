#include "runtime/fault_injection.h"

namespace atnn::runtime {

FaultInjector::FaultInjector(const FaultInjectionConfig& config)
    : config_(config), rng_(config.seed) {}

bool FaultInjector::Draw(double probability) {
  if (probability <= 0.0) return false;
  bool triggered;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    triggered = rng_.Bernoulli(probability);
  }
  if (triggered) faults_injected_.fetch_add(1, std::memory_order_relaxed);
  return triggered;
}

int64_t FaultInjector::MaybeWorkerDelayUs() {
  if (!config_.enabled || config_.worker_delay_us <= 0) return 0;
  return Draw(config_.worker_delay_probability) ? config_.worker_delay_us : 0;
}

bool FaultInjector::ShouldFailBatch() {
  if (!config_.enabled) return false;
  if (fail_all_batches_.load(std::memory_order_relaxed)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return Draw(config_.batch_failure_probability);
}

bool FaultInjector::ShouldRejectEnqueue() {
  if (!config_.enabled) return false;
  return Draw(config_.enqueue_reject_probability);
}

bool FaultInjector::TakeCorruptPublish() {
  if (!config_.enabled) return false;
  if (corrupt_publish_armed_.exchange(false)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void FaultInjector::ArmCorruptPublish() {
  if (config_.enabled) corrupt_publish_armed_.store(true);
}

void FaultInjector::SetStallWorkers(bool stalled) {
  if (!config_.enabled) return;
  if (stalled && !stall_workers_.exchange(stalled)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  } else if (!stalled) {
    stall_workers_.store(false);
  }
}

void FaultInjector::SetFailAllBatches(bool fail_all) {
  if (!config_.enabled) return;
  fail_all_batches_.store(fail_all, std::memory_order_relaxed);
}

}  // namespace atnn::runtime
