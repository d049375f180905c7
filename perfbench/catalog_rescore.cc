// catalog_rescore: the daily catalog refresh. One gateway thread drives a
// 2-shard ShardedRuntime as a closed loop: each pass publishes the next
// model with PublishSharded, then scores every item row exactly once
// through ScoreBatch in shuffled 1000-row chunks (neither a multiple of the
// 64-row micro-batch nor aligned to the shard split). Every row misses the
// score cache, so the cache-miss forward (core, nn/ir plan, nn kernels) and
// the cluster scatter/gather do the work; a score-cache change should move
// nothing here.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>

#include "bench.h"
#include "cluster/sharded_runtime.h"
#include "common/rng.h"
#include "probes.h"
#include "speed.h"
#include "stats.h"
#include "world.h"

namespace atnn::perfbench {

namespace {

constexpr int kSetups = 5;
constexpr size_t kChunkRows = 1000;
constexpr size_t kShards = 2;
/// A chunk answered later than this misses the SLO with all its rows.
constexpr double kChunkSloUs = 20000.0;

WorldSpec CatalogSpec() {
  WorldSpec spec;
  spec.items = 40000;
  spec.new_items = 1000;
  spec.interactions = 20000;
  return spec;
}

cluster::ShardedRuntimeConfig ClusterConfig() {
  cluster::ShardedRuntimeConfig config;
  config.num_shards = kShards;  // one worker each + the gateway = 3 threads
  config.shard.num_workers = 1;
  config.shard.batcher.max_batch_size = kServingMaxBatch;
  config.shard.batcher.max_delay_us = 1000;
  config.shard.batcher.queue_capacity = 4096;
  config.shard.batcher.admission = runtime::AdmissionPolicy::kBlock;
  return config;
}

struct Setup {
  World world;
  /// Today's model is world.model (published at set-up); tomorrow's is
  /// this one. Passes alternate between the two.
  std::shared_ptr<core::AtnnModel> next_model;
  std::shared_ptr<core::PopularityPredictor> next_predictor;
  std::unique_ptr<cluster::ShardedRuntime> cluster;
};

std::unique_ptr<Setup> SetUp(Report* report) {
  auto setup = std::make_unique<Setup>();
  setup->world = BuildWorld(CatalogSpec());
  AddModel(setup->world, /*seed=*/8, &setup->next_model,
           &setup->next_predictor);
  setup->cluster = std::make_unique<cluster::ShardedRuntime>(ClusterConfig());
  auto published = setup->cluster->PublishSharded(SnapshotOf(
      setup->world, setup->world.model, setup->world.predictor));
  if (!published.ok()) {
    report->Fail("publish rejected: " + published.status().ToString());
  }
  return setup;
}

}  // namespace

void RunCatalogRescore(const RunOptions& options, Tracer* tracer,
                       Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    setup_s.push_back(
        SecondsAtReferenceSpeed([&] { setup = SetUp(report); }));
  }
  if (!report->correct) return;
  const World& world = setup->world;
  cluster::ShardedRuntime& cluster = *setup->cluster;

  const int64_t num_rows = world.item_profiles->num_rows();
  std::vector<int64_t> all_rows(static_cast<size_t>(num_rows));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  const runtime::ServingSnapshot snapshots[2] = {
      SnapshotOf(world, setup->next_model, setup->next_predictor),
      SnapshotOf(world, world.model, world.predictor)};
  std::vector<double> reference[2];
  for (int s = 0; s < 2; ++s) {
    auto scores = ReferenceScores(*snapshots[s].model, *snapshots[s].predictor,
                                  *world.item_profiles, all_rows);
    if (!scores.ok()) {
      report->Fail("reference scoring failed: " + scores.status().ToString());
      return;
    }
    reference[s] = std::move(scores).value();
  }

  Tracer::Buffer* buffer = tracer->NewBuffer();
  const uint16_t span_pass = tracer->Intern("pass");
  const uint16_t span_publish = tracer->Intern("cluster.PublishSharded");
  const uint16_t span_chunk = tracer->Intern("chunk");
  const uint16_t span_score = tracer->Intern("cluster.ScoreBatch");

  // The gateway and the cluster's threads (the shard workers) are pinned,
  // and each pass starts by taking the reference time on their CPUs, so
  // chunks and publishes are timed at reference speed (speed.h).
  PinnedThreads pinned;

  Rng rng(HashCombine(options.seed, 0x636174616c6f67ULL));
  std::vector<int64_t> first_order;
  std::vector<double> chunk_us;
  std::vector<double> chunk_cpu_us;
  std::vector<size_t> chunk_pass;
  std::vector<double> publish_ms;
  std::vector<double> publish_cpu_ms;
  std::vector<double> pass_s;
  double scoring_s = 0.0;
  int64_t fresh_in_slo = 0;
  int64_t wrong = 0;
  int64_t errors = 0;
  int64_t degraded = 0;
  uint64_t chunk_id = 0;
  const std::vector<int64_t> locks_before = [&] {
    std::vector<int64_t> locks;
    for (size_t s = 0; s < kShards; ++s) {
      locks.push_back(cluster.shard(s).metrics_registry().mutex_acquisitions());
    }
    return locks;
  }();
  const auto run_start = Clock::now();
  for (int pass = 0;
       std::chrono::duration<double>(Clock::now() - run_start).count() <
       options.seconds;
       ++pass) {
    const int which = pass % 2;
    pinned.TakeReference();
    const auto pass_start = Clock::now();
    ScopedSpan pass_span(tracer, buffer, span_pass, pass, 0);
    uint64_t version = 0;
    {
      ScopedSpan span(tracer, buffer, span_publish, pass, pass_span.id());
      const double cpu_before_us = ProcessCpuUs();
      auto published = cluster.PublishSharded(snapshots[which]);
      publish_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - pass_start)
              .count());
      publish_cpu_ms.push_back((ProcessCpuUs() - cpu_before_us) * 1e-3);
      if (!published.ok()) {
        report->Fail("PublishSharded rejected: " +
                     published.status().ToString());
        return;
      }
      version = published.value();
    }
    std::vector<int64_t> order = all_rows;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }
    if (pass == 0) first_order = order;
    const std::vector<double>& ref = reference[which];
    std::vector<int64_t> chunk;
    for (size_t begin = 0; begin < order.size(); begin += kChunkRows) {
      const size_t end = std::min(order.size(), begin + kChunkRows);
      chunk.assign(order.begin() + static_cast<std::ptrdiff_t>(begin),
                   order.begin() + static_cast<std::ptrdiff_t>(end));
      ScopedSpan chunk_span(tracer, buffer, span_chunk, chunk_id,
                            pass_span.id());
      const double cpu_before_us = ProcessCpuUs();
      const auto start = Clock::now();
      const auto results = cluster.ScoreBatch(chunk);
      const auto done = Clock::now();
      chunk_cpu_us.push_back(ProcessCpuUs() - cpu_before_us);
      tracer->Record(buffer, span_score, chunk_id, chunk_span.id(), start,
                     done);
      ++chunk_id;
      const double us =
          std::chrono::duration<double, std::micro>(done - start).count();
      chunk_us.push_back(us);
      chunk_pass.push_back(static_cast<size_t>(pass));
      scoring_s += us * 1e-6;
      int64_t good = 0;
      for (size_t i = 0; i < chunk.size(); ++i) {
        const auto& result = results[i];
        if (!result.ok()) {
          ++errors;
        } else if (result.value().tier != runtime::ServingTier::kFresh) {
          ++degraded;
        } else if (result.value().snapshot_version != version ||
                   !SameBits(result.value().score,
                             ref[static_cast<size_t>(chunk[i])])) {
          ++wrong;
        } else {
          ++good;
        }
      }
      if (us <= kChunkSloUs) fresh_in_slo += good;
      report->attempted += static_cast<int64_t>(chunk.size());
    }
    pass_s.push_back(
        std::chrono::duration<double>(Clock::now() - pass_start).count());
  }
  pinned.TakeReference();
  int64_t mutex_locks = 0;
  for (size_t s = 0; s < kShards; ++s) {
    mutex_locks += cluster.shard(s).metrics_registry().mutex_acquisitions() -
                   locks_before[s];
  }
  report->failed = errors + degraded + wrong;
  if (wrong > 0) {
    report->Fail(std::to_string(wrong) +
                 " fresh score(s) differ from core::ScoreItemsWithPlan");
  }
  if (errors > 0) report->Fail(std::to_string(errors) + " row(s) errored");

  const size_t chunks = chunk_us.size();
  const std::vector<double> chunk_in_order = chunk_us;
  const Summary chunk = Summarize(&chunk_us);
  std::printf("catalog: %lld rows, %zu shards, %zu pass(es), %zu chunk(s): "
              "%s\n",
              static_cast<long long>(num_rows), kShards, pass_s.size(),
              chunks, FormatSummary(chunk, "us").c_str());
  RuntimeTotals totals;
  double max_rows = 0.0;
  for (size_t s = 0; s < kShards; ++s) {
    const runtime::StatsSnapshot stats = cluster.shard(s).stats();
    totals.Add(stats);
    max_rows = std::max(max_rows, static_cast<double>(stats.enqueued));
  }
  // Chunks and publishes are timed in CPU time of the process, at
  // reference speed. CPU time leaves out the stretches in which the host
  // runs another guest on a vCPU the work waits for: on a shared 4-vCPU VM
  // those moved the median wall time of a chunk up to 2x between runs of the
  // same code, and its CPU time by 3%. Each pass's times are scaled by the
  // compute reference taken just before and after it, on the shard workers'
  // CPUs for chunks and on the gateway's for PublishSharded, which runs on
  // the gateway while the workers are idle.
  std::vector<double> chunk_cpu_ref_us;
  for (size_t i = 0; i < chunk_cpu_us.size(); ++i) {
    chunk_cpu_ref_us.push_back(chunk_cpu_us[i] *
                               pinned.OthersScale(chunk_pass[i]));
  }
  std::vector<double> publish_cpu_ref_ms;
  for (size_t p = 0; p < publish_cpu_ms.size(); ++p) {
    publish_cpu_ref_ms.push_back(publish_cpu_ms[p] * pinned.CallerScale(p));
  }
  // Rows per CPU second of the median chunk (every chunk holds kChunkRows
  // rows): gateway scatter and gather, shard forward and the cross-thread
  // hand-offs between them. The wall-clock rates are printed
  // (rows_per_wall_s, chunk_p50_us) but carry every host stall.
  const double rows_per_s =
      static_cast<double>(kChunkRows) /
      std::max(Median(&chunk_cpu_ref_us) * 1e-6, 1e-9);
  report->EndToEnd("setup_s", Median(&setup_s), "s");
  report->EndToEnd("rows_per_s", rows_per_s, "1/s");
  report->EndToEnd("publish_ms", Median(&publish_cpu_ref_ms), "ms");
  report->EndToEnd("fresh_frac",
                   static_cast<double>(fresh_in_slo) /
                       static_cast<double>(
                           std::max<int64_t>(1, report->attempted)),
                   "ratio");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  report->Detail("rows_per_wall_s",
                 static_cast<double>(report->attempted) /
                     std::max(scoring_s, 1e-9),
                 "1/s");
  report->Detail("chunk_p50_us", chunk.p50, "us");
  report->Detail("chunk_cpu_p50_us", Median(&chunk_cpu_us), "us");
  report->Detail("chunk_p90_us", WindowedQuantile(chunk_in_order, 0.9),
                 "us");
  report->Detail("chunk_p99_us", WindowedQuantile(chunk_in_order, 0.99),
                 "us");
  report->Detail("chunk_samples", static_cast<double>(chunk.count), "count");
  report->Detail("pass_s", Median(&pass_s), "s");
  std::vector<double> reference_us = pinned.others_reference_us();
  report->Detail("host.reference_us", Median(&reference_us), "us");
  report->Detail("host.cluster_threads", static_cast<double>(pinned.others()),
                 "count");
  report->Detail("fail_frac",
                 static_cast<double>(report->failed) /
                     static_cast<double>(
                         std::max<int64_t>(1, report->attempted)),
                 "ratio");

  ReportRuntimeLayer(totals, mutex_locks, report);

  // Cluster layer: the front-end's own gather.* instruments.
  const obs::MetricsSnapshot collected = cluster.Collect();
  for (const auto& [name, histogram] : collected.histograms) {
    if (name == "gather.fanout_us") {
      report->Detail("cluster.fanout_p50_us", histogram.Percentile(0.5),
                     "us");
      report->Detail("cluster.fanout_p99_us", histogram.Percentile(0.99),
                     "us");
    } else if (name == "gather.merge_us") {
      report->Detail("cluster.merge_p99_us", histogram.Percentile(0.99),
                     "us");
    }
  }
  for (const auto& [name, value] : collected.counters) {
    if (name == "gather.degraded") {
      report->Detail("cluster.frontend_degraded", static_cast<double>(value),
                     "count");
    } else if (name == "gather.timeouts") {
      report->Detail("cluster.gather_timeouts", static_cast<double>(value),
                     "count");
    }
  }
  const double mean_rows =
      static_cast<double>(totals.enqueued) / static_cast<double>(kShards);
  report->Detail("cluster.shard_skew",
                 mean_rows > 0.0 ? max_rows / mean_rows : 0.0, "ratio");
  report->Detail("cluster.publish_sharded_ms", Median(&publish_ms), "ms");

  if (!options.trace) return;
  ProbeInputs probes;
  probes.world = &world;
  probes.model = world.model.get();
  probes.predictor = world.predictor.get();
  probes.rows = std::move(first_order);
  probes.batch_rows_mean = totals.batch_size.Mean();
  probes.seed = options.seed;
  RunProbes(probes, tracer, report);
}

}  // namespace atnn::perfbench
