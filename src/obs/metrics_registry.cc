#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>

namespace atnn::obs {

size_t ShardIndex() {
  static std::atomic<size_t> next_slot{0};
  // Round-robin assignment at first use: consecutive threads land on
  // distinct cache lines, unlike hashing std::thread::id (which collides
  // arbitrarily and can put two hot threads on one cell).
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return slot;
}

namespace {

/// Relaxed CAS-loop fetch_add for doubles. libstdc++ has native
/// atomic<double>::fetch_add under C++20, but a spelled-out loop keeps the
/// memory-order story explicit and portable.
void AtomicAddDouble(std::atomic<double>* cell, double delta) {
  double observed = cell->load(std::memory_order_relaxed);
  while (!cell->compare_exchange_weak(observed, observed + delta,
                                      std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* cell, double value) {
  double observed = cell->load(std::memory_order_relaxed);
  while (observed < value &&
         !cell->compare_exchange_weak(observed, value,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::Add(double delta) { AtomicAddDouble(&value_, delta); }

void Gauge::Max(double value) {
  double current = value_.load(std::memory_order_relaxed);
  while (value > current &&
         !value_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void Histogram::Record(double value, int64_t count) {
  if (count <= 0) return;
  Shard& shard = shards_[ShardIndex()];
  if (std::isnan(value)) {
    shard.invalid.fetch_add(count, std::memory_order_relaxed);
    return;
  }
  if (value < 0.0) value = 0.0;
  value = std::min(value, LogHistogram::ValueClamp());
  shard.buckets[LogHistogram::BucketFor(value)].fetch_add(
      count, std::memory_order_relaxed);
  shard.count.fetch_add(count, std::memory_order_relaxed);
  AtomicAddDouble(&shard.sum, value * static_cast<double>(count));
  AtomicMaxDouble(&shard.max, value);
}

LogHistogram Histogram::Snapshot() const {
  LogHistogram merged;
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      const int64_t n = shard.buckets[b].load(std::memory_order_relaxed);
      if (n > 0) merged.AccumulateBucket(b, n);
    }
    merged.AccumulateMeta(shard.count.load(std::memory_order_relaxed),
                          shard.sum.load(std::memory_order_relaxed),
                          shard.max.load(std::memory_order_relaxed),
                          shard.invalid.load(std::memory_order_relaxed));
  }
  return merged;
}

std::unique_lock<std::mutex> MetricsRegistry::Lock() const {
  mutex_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_lock<std::mutex>(mutex_);
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  const auto lock = Lock();
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  const auto lock = Lock();
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  const auto lock = Lock();
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Collect() const {
  const auto lock = Lock();
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snapshot;
}

namespace {

template <typename T>
void AppendPrefixed(const std::string& prefix,
                    std::vector<std::pair<std::string, T>> from,
                    std::vector<std::pair<std::string, T>>* into) {
  for (auto& [name, value] : from) {
    into->emplace_back(prefix + name, std::move(value));
  }
}

template <typename T>
void SortFamilyByName(std::vector<std::pair<std::string, T>>* family) {
  std::sort(family->begin(), family->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

}  // namespace

void MergeWithPrefix(const std::string& prefix, MetricsSnapshot from,
                     MetricsSnapshot* into) {
  AppendPrefixed(prefix, std::move(from.counters), &into->counters);
  AppendPrefixed(prefix, std::move(from.gauges), &into->gauges);
  AppendPrefixed(prefix, std::move(from.histograms), &into->histograms);
}

void SortByName(MetricsSnapshot* snapshot) {
  SortFamilyByName(&snapshot->counters);
  SortFamilyByName(&snapshot->gauges);
  SortFamilyByName(&snapshot->histograms);
}

}  // namespace atnn::obs
