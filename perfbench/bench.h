#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// What a workload receives and what it reports.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace atnn::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span dump and the result record.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured. `end_to_end` and `per_layer` carry the
/// metrics named in BENCHMARK.json (every workload fills all of them);
/// `detail` carries the workload's own numbers, printed but not bounded.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  /// Errors, refusals, degraded answers and wrong scores.
  int64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;

  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value,
              const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  /// Records a correctness failure; the run then exits nonzero.
  void Fail(const std::string& what);
};

void RunHotZipf(const RunOptions& options, Tracer* tracer, Report* report);
void RunCatalogRescore(const RunOptions& options, Tracer* tracer,
                       Report* report);
void RunStreamPublish(const RunOptions& options, Tracer* tracer,
                      Report* report);

}  // namespace atnn::perfbench

#endif  // PERFBENCH_BENCH_H_
