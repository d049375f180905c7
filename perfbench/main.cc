// perfbench: the repo benchmark's program. Runs one workload, checks its
// outputs, prints every metric by name and unit, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"} carrying the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   perfbench --workload hot_zipf --seed 1 --seconds 10 --trace 0
//             --out_dir .bench_build/out
//
// perfbench/run.py builds this and is the command to use.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "nn/kernels.h"
#include "stats.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace atnn::perfbench {

void Report::Fail(const std::string& what) {
  correct = false;
  problems.push_back(what);
}

namespace {

struct Args {
  RunOptions options;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->options.workload = value;
    } else if (key == "--seed") {
      args->options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->options.trace = value == "1";
    } else if (key == "--out_dir") {
      args->options.out_dir = value;
    } else if (key == "--git_sha") {
      args->git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "flags come in --name value pairs\n");
    return false;
  }
  return !args->options.workload.empty() && args->options.seconds > 0.0 &&
         !args->options.out_dir.empty();
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-40s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void PrintSpans(const Tracer& tracer) {
  std::printf("spans (self = duration minus time covered by child spans)\n");
  std::printf("  %-34s %9s %11s %11s %11s %11s\n", "name", "count",
              "total_ms", "self_ms", "p50_us", "tail_us");
  for (SpanStats& stats : tracer.Aggregate()) {
    if (stats.count == 0) continue;
    const Summary summary = Summarize(&stats.durations_us);
    std::printf("  %-34s %9lld %11.2f %11.2f %11.2f %11.2f %s\n",
                stats.name.c_str(), static_cast<long long>(stats.count),
                stats.total_ms, stats.self_ms, summary.p50, summary.tail,
                QuantileLabel(summary.tail_q).c_str());
  }
}

void AppendJsonMetrics(std::string* out, const std::vector<Metric>& metrics) {
  *out += "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    *out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  *out += "}";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

/// The full record of one run, for the tracing-overhead comparison and
/// for anyone diffing runs by hand.
bool WriteRecord(const std::string& path, const Args& args,
                 const Report& report, const std::string& stamp) {
  std::string json = "{\"stamp\": " + stamp +
                     ", \"correct\": " + (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"end_to_end\": ";
  AppendJsonMetrics(&json, report.end_to_end);
  json += ", \"per_layer\": ";
  AppendJsonMetrics(&json, report.per_layer);
  json += ", \"detail\": ";
  AppendJsonMetrics(&json, report.detail);
  json += ", \"problems\": [";
  for (size_t i = 0; i < report.problems.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(report.problems[i]);
  }
  json += "]}\n";
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs(json.c_str(), file);
  return std::fclose(file) == 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hot_zipf|catalog_rescore|"
                 "stream_publish --seed N --seconds S --trace 0|1 "
                 "--out_dir DIR [--git_sha SHA]\n");
    return 2;
  }
  const RunOptions& options = args.options;
  const char* backend =
      nn::kernels::BackendName(nn::kernels::ActiveBackend());
  char stamp[512];
  std::snprintf(stamp, sizeof(stamp),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"cores\": %u, \"build_type\": \"%s\", "
                "\"kernel_backend\": \"%s\", \"git_sha\": %s}",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0,
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                backend, JsonString(args.git_sha).c_str());
  std::printf("perfbench %s\n", stamp);

  Tracer tracer(options.trace);
  Report report;
  if (options.workload == "hot_zipf") {
    RunHotZipf(options, &tracer, &report);
  } else if (options.workload == "catalog_rescore") {
    RunCatalogRescore(options, &tracer, &report);
  } else if (options.workload == "stream_publish") {
    RunStreamPublish(options, &tracer, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  for (const std::vector<Metric>* list :
       {&report.end_to_end, &report.per_layer, &report.detail}) {
    for (const Metric& metric : *list) {
      if (!std::isfinite(metric.value)) {
        report.Fail("metric " + metric.name + " is not finite");
      }
    }
  }

  PrintMetrics("end-to-end", report.end_to_end);
  PrintMetrics("workload detail", report.detail);
  if (options.trace) {
    PrintMetrics("per-layer", report.per_layer);
    PrintSpans(tracer);
    const std::string spans_path =
        options.out_dir + "/spans-" + options.workload + ".csv";
    if (tracer.WriteCsv(spans_path)) {
      std::printf("%zu spans written to %s\n", tracer.num_spans(),
                  spans_path.c_str());
    } else {
      report.Fail("could not write " + spans_path);
    }
  }
  const std::string record_path = options.out_dir + "/" + options.workload +
                                  "-seed" + std::to_string(options.seed) +
                                  "-trace" + (options.trace ? "1" : "0") +
                                  ".json";
  if (!WriteRecord(record_path, args, report, stamp)) {
    report.Fail("could not write " + record_path);
  }
  for (const std::string& problem : report.problems) {
    std::printf("CORRECTNESS FAILURE: %s\n", problem.c_str());
  }
  if (report.attempted < 1) report.Fail("nothing was attempted");

  std::string line = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": ";
  AppendJsonMetrics(&line,
                    options.trace ? report.per_layer : report.end_to_end);
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace atnn::perfbench

int main(int argc, char** argv) { return atnn::perfbench::Main(argc, argv); }
