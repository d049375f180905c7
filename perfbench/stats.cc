#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace atnn::perfbench {

namespace {

constexpr double kQuantileLadder[] = {0.9999, 0.999, 0.99, 0.95, 0.9, 0.5};

/// ceil(q * n) without the float error that turns 0.99 * 1000 into
/// 990.0000000000001 and its ceiling into 991.
/// Windows of at least 1,000 samples, at most 20, at least one.
int64_t NumWindows(int64_t n) { return std::clamp<int64_t>(n / 1000, 1, 20); }

int64_t Rank(int64_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const double rounded = std::round(exact);
  if (std::abs(exact - rounded) < 1e-9) return static_cast<int64_t>(rounded);
  return static_cast<int64_t>(std::ceil(exact));
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(sorted.size());
  const int64_t rank = std::clamp<int64_t>(Rank(n, q), 1, n);
  return sorted[static_cast<size_t>(rank - 1)];
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  return n - std::clamp<int64_t>(Rank(n, q), 1, n);
}

double HighestSupportedQuantile(int64_t n, int64_t min_beyond) {
  for (const double q : kQuantileLadder) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

std::string QuantileLabel(double q) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "p%g", q * 100.0);
  return buffer;
}

Summary Summarize(std::vector<double>* values) {
  Summary summary;
  std::sort(values->begin(), values->end());
  summary.count = static_cast<int64_t>(values->size());
  if (values->empty()) return summary;
  summary.p50 = NearestRank(*values, 0.5);
  summary.p99 = NearestRank(*values, 0.99);
  summary.tail_q = HighestSupportedQuantile(summary.count);
  if (summary.tail_q > 0.0) {
    summary.tail = NearestRank(*values, summary.tail_q);
  }
  return summary;
}

std::string FormatSummary(const Summary& summary, const char* unit) {
  char buffer[160];
  if (summary.tail_q > 0.0 && summary.tail_q != 0.5) {
    std::snprintf(buffer, sizeof(buffer), "p50 %.1f %s, %s %.1f %s (n=%lld)",
                  summary.p50, unit, QuantileLabel(summary.tail_q).c_str(),
                  summary.tail, unit,
                  static_cast<long long>(summary.count));
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "p50 %.1f %s, no tail percentile (n=%lld)", summary.p50,
                  unit, static_cast<long long>(summary.count));
  }
  return buffer;
}

double Median(std::vector<double>* values) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  return n % 2 == 1 ? (*values)[n / 2]
                    : 0.5 * ((*values)[n / 2 - 1] + (*values)[n / 2]);
}

double WindowedQuantile(const std::vector<double>& in_time_order, double q) {
  const int64_t n = static_cast<int64_t>(in_time_order.size());
  const int64_t windows = NumWindows(n);
  std::vector<double> tails;
  for (int64_t w = 0; w < windows; ++w) {
    std::vector<double> window(
        in_time_order.begin() + static_cast<std::ptrdiff_t>(n * w / windows),
        in_time_order.begin() +
            static_cast<std::ptrdiff_t>(n * (w + 1) / windows));
    std::sort(window.begin(), window.end());
    tails.push_back(NearestRank(window, q));
  }
  return Median(&tails);
}

double WindowedShare(const std::vector<char>& in_time_order) {
  const int64_t n = static_cast<int64_t>(in_time_order.size());
  const int64_t windows = NumWindows(n);
  std::vector<double> shares;
  for (int64_t w = 0; w < windows; ++w) {
    const int64_t begin = n * w / windows;
    const int64_t end = n * (w + 1) / windows;
    double set = 0.0;
    for (int64_t i = begin; i < end; ++i) set += in_time_order[i];
    shares.push_back(end > begin ? set / static_cast<double>(end - begin)
                                 : 0.0);
  }
  return Median(&shares);
}

bool RungMeetsSlo(const Rung& rung, const Slo& slo) {
  if (rung.attempted <= 0) return false;
  const double backlog_limit = rung.offered_rps * slo.p99_limit_us * 1e-6;
  return rung.p99_us <= slo.p99_limit_us &&
         rung.late_p99_us <= slo.late_p99_limit_us &&
         rung.fresh_share >= slo.min_fresh_share &&
         static_cast<double>(rung.backlog) <= backlog_limit;
}

int BestRung(const std::vector<Rung>& rungs, const Slo& slo) {
  int best = -1;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (RungMeetsSlo(rungs[i], slo) &&
        (best < 0 || rungs[i].offered_rps > rungs[best].offered_rps)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace atnn::perfbench
