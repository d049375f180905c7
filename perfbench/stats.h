#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample statistics and the rate-ladder verdict used by every workload.
// Pure functions on plain vectors, covered by selftest.cc.

#include <cstdint>
#include <string>
#include <vector>

namespace atnn::perfbench {

/// Samples a reported percentile must leave beyond it.
inline constexpr int64_t kMinBeyond = 10;

/// Nearest-rank percentile of an ascending `sorted` sample: the value at
/// rank ceil(q * n). q in (0, 1]; returns 0 for an empty sample.
double NearestRank(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-th percentile: n - ceil(q n).
int64_t SamplesBeyond(int64_t n, double q);

/// The highest of p99.99, p99.9, p99, p95, p90 and p50 that leaves at
/// least `min_beyond` samples beyond it; 0 when even the median does not.
double HighestSupportedQuantile(int64_t n, int64_t min_beyond = kMinBeyond);

/// "p50", "p99", "p99.9", ...
std::string QuantileLabel(double q);

/// A timing as reported: the median, the highest supported percentile,
/// and the sample count behind both.
struct Summary {
  int64_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // 0 when the sample supports no tail percentile
  double tail = 0.0;
  /// p99 by nearest rank, whether or not the sample supports it.
  double p99 = 0.0;
};

/// Summarizes `values` (reordered in place).
Summary Summarize(std::vector<double>* values);

/// "p50 812.0 us, p99 2210.5 us (n=48211)".
std::string FormatSummary(const Summary& summary, const char* unit);

/// Median of `values` (reordered in place); 0 for an empty sample.
double Median(std::vector<double>* values);

/// Splits a time-ordered sample into consecutive windows of at least
/// 1,000 samples (at most 20 windows), takes the nearest-rank q-th
/// percentile of each, and returns the median over windows. A host hiccup
/// then moves one window's tail, not the reported one. Falls back to the
/// pooled percentile when there are too few samples for two windows.
double WindowedQuantile(const std::vector<double>& in_time_order, double q);

/// WindowedQuantile's companion for pass/fail flags: the share of set
/// flags in each window, median over windows.
double WindowedShare(const std::vector<char>& in_time_order);

/// One rung of an open-loop rate ladder, as measured. Timings are
/// WindowedQuantile p99s, so one host hiccup does not decide a rung.
struct Rung {
  double offered_rps = 0.0;
  int64_t attempted = 0;
  /// WindowedShare of requests answered fresh, correct and in time.
  double fresh_share = 0.0;
  /// Requests answered fresh, correct and in time per scheduled second.
  double achieved_rps = 0.0;
  double p99_us = 0.0;          // request latency from its due time
  double late_p99_us = 0.0;     // how late the generator sent
  /// Requests sent but unanswered, median over instants in the rung's
  /// second half: a queue that keeps growing shows here.
  int64_t backlog = 0;
};

/// The service-level objective a rung must meet.
struct Slo {
  double p99_limit_us = 0.0;
  /// Share of requests that must be answered fresh in time.
  double min_fresh_share = 0.99;
  /// Generator lateness limit: a late generator means the offered rate
  /// was never delivered.
  double late_p99_limit_us = 0.0;
};

/// A rung meets the SLO when its p99 is within the limit, the generator
/// kept to its schedule, enough requests came back fresh in time, and the
/// backlog stays within one latency limit's worth of arrivals (more means
/// the queue was growing).
bool RungMeetsSlo(const Rung& rung, const Slo& slo);

/// Index of the highest rung meeting the SLO, or -1 when none does.
int BestRung(const std::vector<Rung>& rungs, const Slo& slo);

}  // namespace atnn::perfbench

#endif  // PERFBENCH_STATS_H_
