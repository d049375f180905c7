#include "runtime/runtime_stats.h"

#include "common/table_printer.h"

namespace atnn::runtime {

namespace {

/// Registers the per-tier counter handles ("tier.fresh", ...) up front so
/// RecordServed never touches the registry mutex.
std::array<obs::Counter*, kNumServingTiers> MakeTierCounters(
    obs::MetricsRegistry& registry) {
  std::array<obs::Counter*, kNumServingTiers> counters;
  for (size_t t = 0; t < kNumServingTiers; ++t) {
    counters[t] = &registry.GetCounter(
        std::string("tier.") + ServingTierToString(static_cast<ServingTier>(t)));
  }
  return counters;
}

}  // namespace

const char* ServingTierToString(ServingTier tier) {
  switch (tier) {
    case ServingTier::kFresh:
      return "fresh";
    case ServingTier::kStaleCache:
      return "stale_cache";
    case ServingTier::kPrior:
      return "prior";
    case ServingTier::kGlobalMean:
      return "global_mean";
  }
  return "unknown";
}

RuntimeStats::RuntimeStats()
    : enqueued_(registry_.GetCounter("enqueued")),
      rejected_(registry_.GetCounter("rejected")),
      completed_ok_(registry_.GetCounter("completed_ok")),
      completed_error_(registry_.GetCounter("completed_error")),
      batches_(registry_.GetCounter("batches")),
      cache_hits_(registry_.GetCounter("cache_hits")),
      swaps_(registry_.GetCounter("snapshot_swaps")),
      publish_rejected_(registry_.GetCounter("publish_rejected")),
      deadline_expired_(registry_.GetCounter("deadline_expired")),
      degraded_(registry_.GetCounter("degraded")),
      plan_compiled_(registry_.GetCounter("plan.compiled")),
      plan_executions_(registry_.GetCounter("plan.executions")),
      plan_exec_fallback_(registry_.GetCounter("plan.exec_fallback")),
      tier_counts_(MakeTierCounters(registry_)),
      queue_depth_(registry_.GetGauge("queue_depth")),
      plan_reserved_bytes_(registry_.GetGauge("plan.reserved_bytes")),
      enqueue_wait_us_(registry_.GetHistogram("enqueue_wait_us")),
      batch_size_(registry_.GetHistogram("batch_size")),
      score_us_(registry_.GetHistogram("score_us")),
      total_latency_us_(registry_.GetHistogram("total_latency_us")),
      fresh_latency_us_(registry_.GetHistogram("fresh_latency_us")) {}

StatsSnapshot RuntimeStats::Snapshot() const {
  // Reads go straight through the pinned handles: no registry mutex, so a
  // snapshot never perturbs the bench's mutex_acquisitions() assertion.
  StatsSnapshot snapshot;
  snapshot.enqueued = enqueued_.Value();
  snapshot.rejected = rejected_.Value();
  snapshot.completed_ok = completed_ok_.Value();
  snapshot.completed_error = completed_error_.Value();
  snapshot.batches = batches_.Value();
  snapshot.cache_hits = cache_hits_.Value();
  snapshot.swaps = swaps_.Value();
  snapshot.publish_rejected = publish_rejected_.Value();
  snapshot.deadline_expired = deadline_expired_.Value();
  snapshot.degraded = degraded_.Value();
  snapshot.plan_compiled = plan_compiled_.Value();
  snapshot.plan_executions = plan_executions_.Value();
  snapshot.plan_exec_fallback = plan_exec_fallback_.Value();
  snapshot.plan_reserved_bytes =
      static_cast<int64_t>(plan_reserved_bytes_.Value());
  for (size_t t = 0; t < kNumServingTiers; ++t) {
    snapshot.tier_counts[t] = tier_counts_[t]->Value();
  }
  snapshot.enqueue_wait_us = enqueue_wait_us_.Snapshot();
  snapshot.batch_size = batch_size_.Snapshot();
  snapshot.score_us = score_us_.Snapshot();
  snapshot.total_latency_us = total_latency_us_.Snapshot();
  snapshot.fresh_latency_us = fresh_latency_us_.Snapshot();
  return snapshot;
}

std::string RuntimeStats::ToTable(const StatsSnapshot& snapshot,
                                  const std::string& title) {
  TablePrinter table(title);
  table.SetHeader({"stage", "count", "mean", "p50", "p95", "p99", "max"});
  const auto row = [&table](const std::string& name,
                            const LogHistogram& hist) {
    table.AddRow({name, std::to_string(hist.count()),
                  TablePrinter::Num(hist.Mean(), 1),
                  TablePrinter::Num(hist.Percentile(0.50), 1),
                  TablePrinter::Num(hist.Percentile(0.95), 1),
                  TablePrinter::Num(hist.Percentile(0.99), 1),
                  TablePrinter::Num(hist.max(), 1)});
  };
  row("enqueue_wait_us", snapshot.enqueue_wait_us);
  row("batch_size", snapshot.batch_size);
  row("score_us", snapshot.score_us);
  row("total_latency_us", snapshot.total_latency_us);
  row("fresh_latency_us", snapshot.fresh_latency_us);
  table.AddRow({"enqueued", std::to_string(snapshot.enqueued), "", "", "", "",
                ""});
  table.AddRow({"rejected", std::to_string(snapshot.rejected), "", "", "", "",
                ""});
  table.AddRow({"completed_ok", std::to_string(snapshot.completed_ok), "", "",
                "", "", ""});
  table.AddRow({"completed_error", std::to_string(snapshot.completed_error),
                "", "", "", "", ""});
  table.AddRow({"batches", std::to_string(snapshot.batches), "", "", "", "",
                ""});
  table.AddRow({"cache_hits", std::to_string(snapshot.cache_hits), "", "", "",
                "", ""});
  table.AddRow({"snapshot_swaps", std::to_string(snapshot.swaps), "", "", "",
                "", ""});
  table.AddRow({"publish_rejected", std::to_string(snapshot.publish_rejected),
                "", "", "", "", ""});
  table.AddRow({"deadline_expired", std::to_string(snapshot.deadline_expired),
                "", "", "", "", ""});
  table.AddRow({"degraded", std::to_string(snapshot.degraded), "", "", "", "",
                ""});
  table.AddRow({"faults_injected", std::to_string(snapshot.faults_injected),
                "", "", "", "", ""});
  table.AddRow({"plan_compiled", std::to_string(snapshot.plan_compiled), "",
                "", "", "", ""});
  table.AddRow({"plan_executions", std::to_string(snapshot.plan_executions),
                "", "", "", "", ""});
  table.AddRow({"plan_exec_fallback",
                std::to_string(snapshot.plan_exec_fallback), "", "", "", "",
                ""});
  table.AddRow({"plan_reserved_bytes",
                std::to_string(snapshot.plan_reserved_bytes), "", "", "", "",
                ""});
  for (size_t t = 0; t < kNumServingTiers; ++t) {
    table.AddRow({std::string("tier_") +
                      ServingTierToString(static_cast<ServingTier>(t)),
                  std::to_string(snapshot.tier_counts[t]), "", "", "", "",
                  ""});
  }
  return table.ToString();
}

}  // namespace atnn::runtime
