// Sharded multi-tenant serving bench: the scatter/gather layer of
// src/cluster under a replay of millions of distinct simulated users.
//
// Protocols:
//
//   (default) shard sweep — the identical Zipf-skewed workload replayed
//   against 1, 2, 4 and 8 shards of the same catalog. Gates: zero request
//   errors at every shard count, every response tier-tagged, and the
//   worst per-shard fresh-tier p99 within 1.5x of the 1-shard baseline
//   (adding shards must not degrade any single shard's tail).
//
//   --chaos — a 4-shard runtime with a popularity prior loses one shard
//   cold in the middle of the replay (ShutDownShard, the drill for a
//   worker group crashing in production). Gates: zero crashed requests,
//   every response tier-tagged before and after the failure, the dead
//   shard's traffic degrades to the prior tier (never an error), and the
//   surviving shards keep serving fresh.
//
//   --recover — the chaos drill with a ShardSupervisor attached: the
//   shard killed one third in is detected dead, rebuilt from the last
//   published snapshot slice, and re-admitted through its circuit
//   breaker. Gates: zero errors, every response tier-tagged, the shard
//   walks back to healthy, and the final third's fresh-tier fraction is
//   within 5 points of the pre-kill fraction.
//
//   --resize — a 4-shard runtime is live-resized to 6 shards halfway
//   through the replay while clients keep scoring. Gates: zero errors,
//   every response tier-tagged, only bounded-remap rows moved, and both
//   new shards take traffic after the swap.
//
//   --shed — tenant "limited" gets a starvation-level admission quota
//   while tenant "unlimited" shares the process unthrottled. Gates: the
//   limited tenant's over-quota rows shed tier-tagged (never errors) and
//   the unlimited tenant's worst-shard fresh p99 stays within 1.5x of an
//   isolated baseline run (report-only under --smoke).
//
// Weights stay at their seeded initialization: routing, batching and
// degradation behaviour do not depend on what the weights converged to.
//
//   $ ./build/bench/bench_sharded_serving            # full sweep
//   $ ./build/bench/bench_sharded_serving --chaos
//   $ ./build/bench/bench_sharded_serving --recover
//   $ ./build/bench/bench_sharded_serving --resize
//   $ ./build/bench/bench_sharded_serving --shed
//
// --smoke shrinks the world and stream for CI sanitizer jobs and makes
// the p99 gates report-only (sanitizer scheduling noise swamps tails).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/shard_supervisor.h"
#include "cluster/sharded_runtime.h"
#include "cluster/tenant_registry.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/popularity.h"
#include "serving/popularity_index.h"

namespace atnn::bench {
namespace {

/// Scored in chunks of this many rows per ScoreBatch — the request-batch
/// shape a gateway would hand the front-end. Deliberately NOT a multiple
/// of the batcher's max_batch_size: a gateway doesn't align its chunks to
/// the shard batch size, and an aligned chunk would hand the 1-shard
/// baseline all-full batches (no flush-window waits) while the hash-split
/// sub-batches always end in a partial batch — a rigged comparison.
constexpr size_t kChunk = 1000;

/// Whole-request budget of the chaos and recover drills. Sanitized builds
/// run several times slower, so a plain build's 50 ms misses whole chunks
/// there (seen under TSan after the host sat idle): every breaker opens
/// on the gather timeouts, and a drill without a supervisor never closes
/// them again.
constexpr int64_t kDrillBudgetUs = kSanitized ? 500000 : 50000;

/// Total worker threads across the whole runtime, re-partitioned as the
/// shard count grows — the sweep models one fixed machine sharded N ways,
/// so the p99 gate measures scatter/gather overhead, not thread
/// oversubscription (1 shard x 8 workers vs 8 shards x 8 workers would
/// compare different machines).
constexpr size_t kWorkerBudget = 8;

/// One request per distinct simulated user: user u's RNG stream is forked
/// from its id, and its item choice is the usual head-heavy Zipf draw.
/// "Distinct users" matters because it defeats any accidental
/// request-level memoization above the runtime: every request is an
/// independent draw, only the *item* distribution is skewed.
std::vector<int64_t> MakeUserReplay(const data::TmallDataset& dataset,
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

cluster::ShardedRuntimeConfig ShardedConfig(
    size_t num_shards,
    std::shared_ptr<const serving::PopularityIndex> prior) {
  cluster::ShardedRuntimeConfig config;
  config.num_shards = num_shards;
  config.shard.num_workers = std::max<size_t>(1, kWorkerBudget / num_shards);
  config.shard.batcher.max_batch_size = 64;
  // Latency-tier flush window: a partial batch waits at most this long
  // for co-riders. The interactive-serving setting — a wide window (the
  // throughput-tier default) would put a fixed multi-ms floor under every
  // chunk's tail request and the sweep would measure the window, not the
  // scatter/gather layer.
  config.shard.batcher.max_delay_us = 100;
  config.shard.batcher.queue_capacity = 8192;
  config.shard.batcher.admission = runtime::AdmissionPolicy::kBlock;
  config.prior = std::move(prior);
  return config;
}

struct ReplayOutcome {
  int64_t requests = 0;
  int64_t errors = 0;  // answers that came back a Status — must stay 0
  std::array<int64_t, runtime::kNumServingTiers> tiers = {};
  double wall_s = 0.0;
  /// max over shards of that shard's fresh-tier p99 (us) — the sweep's
  /// gated quantity: the worst tail any single shard imposes.
  double worst_shard_p99_us = 0.0;
  int64_t degraded_after_failure = 0;
  int64_t fresh_after_failure = 0;
};

int64_t TierTagged(const ReplayOutcome& outcome) {
  int64_t sum = 0;
  for (const int64_t count : outcome.tiers) sum += count;
  return sum;
}

/// Replays `stream` through `runtime` in kChunk-sized batches. If
/// `fail_shard` >= 0, that shard is shut down cold one third of the way
/// through, and responses from then on are tallied into the
/// *_after_failure fields.
ReplayOutcome Replay(cluster::ShardedRuntime& runtime,
                     const std::vector<int64_t>& stream, int fail_shard) {
  ReplayOutcome outcome;
  outcome.requests = static_cast<int64_t>(stream.size());
  const size_t fail_at = stream.size() / 3;
  bool failed = false;
  Stopwatch timer;
  for (size_t begin = 0; begin < stream.size(); begin += kChunk) {
    if (fail_shard >= 0 && !failed && begin >= fail_at) {
      runtime.ShutDownShard(static_cast<size_t>(fail_shard));
      failed = true;
    }
    const size_t end = std::min(begin + kChunk, stream.size());
    const std::vector<int64_t> chunk(stream.begin() + begin,
                                     stream.begin() + end);
    const auto results = runtime.ScoreBatch(chunk);
    for (const auto& result : results) {
      if (!result.ok()) {
        ++outcome.errors;
        continue;
      }
      const auto tier = result.value().tier;
      ++outcome.tiers[static_cast<size_t>(tier)];
      if (failed) {
        if (tier == runtime::ServingTier::kFresh) {
          ++outcome.fresh_after_failure;
        } else {
          ++outcome.degraded_after_failure;
        }
      }
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

struct BenchWorld {
  data::TmallDataset dataset;
  std::unique_ptr<core::AtnnModel> model;
  std::unique_ptr<core::PopularityPredictor> predictor;
  std::shared_ptr<serving::PopularityIndex> prior;
};

BenchWorld BuildWorld(bool smoke) {
  data::TmallConfig world = PaperScaleTmallConfig();
  world.num_users = smoke ? 200 : 1000;
  world.num_items = smoke ? 500 : 2000;
  world.num_new_items = smoke ? 150 : 600;
  world.num_interactions = smoke ? 8000 : 50000;
  BenchWorld built{data::GenerateTmallDataset(world), nullptr, nullptr,
                   nullptr};
  core::NormalizeTmallInPlace(&built.dataset);

  core::AtnnConfig config;
  config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 7;
  built.model = std::make_unique<core::AtnnModel>(
      *built.dataset.user_schema, *built.dataset.item_profile_schema,
      *built.dataset.item_stats_schema, config);
  const auto group =
      core::SelectActiveUsers(built.dataset, smoke ? 100 : 300);
  built.predictor = std::make_unique<core::PopularityPredictor>(
      core::PopularityPredictor::Build(*built.model, built.dataset, group));

  // "Yesterday's" popularity index over the arrivals — the degraded tier
  // a dead shard's traffic falls back to.
  const auto prior_scores = built.predictor->ScoreItems(
      *built.model, built.dataset, built.dataset.new_items);
  built.prior = std::make_shared<serving::PopularityIndex>();
  built.prior->BulkLoad(built.dataset.new_items, prior_scores);
  return built;
}

runtime::ServingSnapshot MakeSnapshot(const BenchWorld& world) {
  runtime::ServingSnapshot snapshot;
  snapshot.model = runtime::Unowned(world.model.get());
  snapshot.predictor = runtime::Unowned(world.predictor.get());
  snapshot.item_profiles = runtime::Unowned(&world.dataset.item_profiles);
  snapshot.tag = "bench-sharded";
  return snapshot;
}

int RunSweep(bool smoke) {
  const BenchWorld world = BuildWorld(smoke);
  // "Millions of distinct simulated users" at full budget; the smoke
  // budget keeps sanitizer jobs inside their time box.
  const int64_t num_users = smoke ? 20000 : 2000000;
  const auto stream = MakeUserReplay(world.dataset, num_users);
  std::printf("shard sweep: %lld distinct simulated users, chunk %zu\n\n",
              static_cast<long long>(num_users), kChunk);

  TablePrinter table("sharded serving sweep — identical workload per row");
  table.SetHeader({"shards", "wall_s", "req/s", "fresh", "degraded",
                   "errors", "worst_shard_p99_us"});

  int failures = 0;
  const auto gate = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS:" : "FAIL:", what.c_str());
    if (!ok) ++failures;
  };

  double baseline_p99 = 0.0;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    cluster::ShardedRuntime runtime(ShardedConfig(shards, world.prior));
    const auto published = runtime.PublishSharded(MakeSnapshot(world));
    if (!published.ok()) {
      std::printf("FATAL: publish failed at %zu shards: %s\n", shards,
                  published.status().ToString().c_str());
      return 1;
    }
    const ReplayOutcome outcome = Replay(runtime, stream, /*fail_shard=*/-1);
    runtime.Shutdown();
    if (shards == 1) baseline_p99 = outcome.worst_shard_p99_us;

    const int64_t fresh =
        outcome.tiers[static_cast<size_t>(runtime::ServingTier::kFresh)];
    table.AddRow(
        {std::to_string(shards), TablePrinter::Num(outcome.wall_s, 2),
         TablePrinter::Num(
             static_cast<double>(outcome.requests) / outcome.wall_s, 0),
         std::to_string(fresh),
         std::to_string(TierTagged(outcome) - fresh),
         std::to_string(outcome.errors),
         TablePrinter::Num(outcome.worst_shard_p99_us, 0)});

    gate(outcome.errors == 0,
         std::to_string(shards) + " shards: zero request errors");
    gate(TierTagged(outcome) == outcome.requests,
         std::to_string(shards) + " shards: every response tier-tagged");
    if (shards > 1) {
      const bool p99_ok =
          outcome.worst_shard_p99_us <= 1.5 * baseline_p99;
      const std::string what =
          std::to_string(shards) +
          " shards: worst per-shard fresh p99 within 1.5x of 1-shard "
          "baseline (" +
          TablePrinter::Num(outcome.worst_shard_p99_us, 0) + "us vs " +
          TablePrinter::Num(baseline_p99, 0) + "us)";
      // The tail gate is only meaningful when the shards' queue drains can
      // actually overlap: with fewer cores than shards the kernel
      // serializes the per-shard workers, the last-scheduled shard's
      // oldest request waits out the whole chunk drain, and the p99
      // measures the scheduler instead of the scatter/gather layer.
      // Sanitizer/CI runs (--smoke) are report-only for the same reason as
      // bench_runtime_throughput: instrumentation noise swamps tails.
      const bool parallel_drains =
          std::thread::hardware_concurrency() >= shards;
      if (smoke || !parallel_drains) {
        std::printf("%s %s (report-only: %s)\n", p99_ok ? "PASS:" : "WARN:",
                    what.c_str(),
                    smoke ? "--smoke" : "fewer cores than shards");
      } else {
        gate(p99_ok, what);
      }
    }
  }
  std::printf("\n");
  table.Print();
  return failures == 0 ? 0 : 1;
}

int RunChaos(bool smoke) {
  const BenchWorld world = BuildWorld(smoke);
  const int64_t num_users = smoke ? 20000 : 1000000;
  const auto stream = MakeUserReplay(world.dataset, num_users);
  constexpr size_t kShards = 4;
  constexpr int kDeadShard = 1;

  cluster::ShardedRuntimeConfig config =
      ShardedConfig(kShards, world.prior);
  config.default_deadline_us = kDrillBudgetUs;
  cluster::ShardedRuntime runtime(config);
  const auto published = runtime.PublishSharded(MakeSnapshot(world));
  if (!published.ok()) {
    std::printf("FATAL: publish failed: %s\n",
                published.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "chaos: %lld users over %zu shards, shard %d dies one third in\n\n",
      static_cast<long long>(num_users), kShards, kDeadShard);
  const ReplayOutcome outcome = Replay(runtime, stream, kDeadShard);
  runtime.Shutdown();

  // The dead shard's metrics namespace must survive the failure — that is
  // how the operator attributes the degradation.
  const auto snapshot = runtime.Collect();
  int64_t dead_enqueued = -1;
  int64_t frontend_degraded = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "shard" + std::to_string(kDeadShard) + ".enqueued") {
      dead_enqueued = value;
    }
    if (name == "gather.degraded") frontend_degraded = value;
  }

  std::printf(
      "requests %lld, errors %lld, degraded after failure %lld, fresh "
      "after failure %lld\nfrontend degraded %lld, dead shard enqueued "
      "%lld (pre-failure traffic)\n\n",
      static_cast<long long>(outcome.requests),
      static_cast<long long>(outcome.errors),
      static_cast<long long>(outcome.degraded_after_failure),
      static_cast<long long>(outcome.fresh_after_failure),
      static_cast<long long>(frontend_degraded),
      static_cast<long long>(dead_enqueued));

  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS:" : "FAIL:", what);
    if (!ok) ++failures;
  };
  gate(outcome.errors == 0, "zero crashed requests through the failure");
  gate(TierTagged(outcome) == outcome.requests,
       "every response tier-tagged");
  gate(outcome.degraded_after_failure > 0,
       "dead shard's traffic served degraded (prior tier), not dropped");
  gate(outcome.fresh_after_failure > 0,
       "surviving shards kept serving fresh");
  gate(frontend_degraded >= outcome.degraded_after_failure &&
           frontend_degraded > 0,
       "front-end accounted every degraded answer");
  gate(dead_enqueued >= 0, "dead shard's metrics namespace still present");
  return failures == 0 ? 0 : 1;
}

/// --recover: the chaos kill with a supervisor attached. The replay is
/// split into thirds — the kill lands at the 1/3 mark, the supervisor
/// heals the shard during the middle third (the drill waits, bounded,
/// for probation to finish before the final third starts so the gate
/// measures recovery, not scheduling luck), and the final third must
/// serve fresh at the pre-kill rate again.
int RunRecover(bool smoke) {
  const BenchWorld world = BuildWorld(smoke);
  const int64_t num_users = smoke ? 20000 : 1000000;
  const auto stream = MakeUserReplay(world.dataset, num_users);
  constexpr size_t kShards = 4;
  constexpr size_t kDeadShard = 1;

  cluster::ShardedRuntimeConfig config =
      ShardedConfig(kShards, world.prior);
  config.default_deadline_us = kDrillBudgetUs;
  // Fast breaker re-admission: the drill's wall clock is the replay, not
  // a production cooldown.
  config.breaker.cooldown_ms = 5;
  config.breaker.probes_to_close = 2;
  cluster::ShardedRuntime runtime(config);
  const auto published = runtime.PublishSharded(MakeSnapshot(world));
  if (!published.ok()) {
    std::printf("FATAL: publish failed: %s\n",
                published.status().ToString().c_str());
    return 1;
  }

  cluster::ShardSupervisorConfig supervision;
  supervision.probe_period_ms = 2;
  supervision.seed = 0x5eedULL;
  cluster::ShardSupervisor supervisor(&runtime, supervision);
  supervisor.Start();

  std::printf(
      "recover: %lld users over %zu shards, shard %zu dies one third in, "
      "supervisor heals it\n\n",
      static_cast<long long>(num_users), kShards, kDeadShard);

  const size_t third = stream.size() / 3;
  int64_t errors = 0;
  int64_t tier_tagged = 0;
  int64_t fresh_first_third = 0;
  int64_t fresh_final_third = 0;
  int64_t answered_first_third = 0;
  int64_t answered_final_third = 0;
  for (size_t begin = 0; begin < stream.size(); begin += kChunk) {
    if (begin >= third && begin < third + kChunk) {
      runtime.ShutDownShard(kDeadShard);
    }
    if (begin >= 2 * third && begin < 2 * third + kChunk) {
      // Bounded wait for the supervisor to finish probation; the gate
      // below still checks the final health independently. Recovery is
      // rebuild evidence AND health — health alone starts at kHealthy
      // and would read as recovered before the kill is even detected.
      const auto rebuilt = [&supervisor] {
        for (const auto& [name, value] : supervisor.Collect().counters) {
          if (name == "supervisor.rebuilds") return value >= 1;
        }
        return false;
      };
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while ((!rebuilt() || supervisor.health(kDeadShard) !=
                                cluster::ShardHealth::kHealthy) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    const size_t end = std::min(begin + kChunk, stream.size());
    const std::vector<int64_t> chunk(stream.begin() + begin,
                                     stream.begin() + end);
    for (const auto& result : runtime.ScoreBatch(chunk)) {
      if (!result.ok()) {
        ++errors;
        continue;
      }
      ++tier_tagged;
      const bool fresh =
          result.value().tier == runtime::ServingTier::kFresh;
      if (begin < third) {
        ++answered_first_third;
        fresh_first_third += fresh ? 1 : 0;
      } else if (begin >= 2 * third) {
        ++answered_final_third;
        fresh_final_third += fresh ? 1 : 0;
      }
    }
  }
  supervisor.Stop();
  const auto health = supervisor.health(kDeadShard);
  runtime.Shutdown();

  int64_t rebuilds = 0;
  for (const auto& [name, value] : supervisor.Collect().counters) {
    if (name == "supervisor.rebuilds") rebuilds = value;
  }
  const double fresh_before =
      static_cast<double>(fresh_first_third) /
      static_cast<double>(std::max<int64_t>(1, answered_first_third));
  const double fresh_after =
      static_cast<double>(fresh_final_third) /
      static_cast<double>(std::max<int64_t>(1, answered_final_third));
  std::printf(
      "requests %zu, errors %lld, rebuilds %lld, shard %zu final health "
      "%s\nfresh fraction: first third %.3f, final third %.3f\n\n",
      stream.size(), static_cast<long long>(errors),
      static_cast<long long>(rebuilds), kDeadShard,
      cluster::ShardHealthToString(health), fresh_before, fresh_after);

  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS:" : "FAIL:", what);
    if (!ok) ++failures;
  };
  gate(errors == 0, "zero dropped or errored requests through the kill");
  gate(tier_tagged == static_cast<int64_t>(stream.size()),
       "every response tier-tagged");
  gate(rebuilds >= 1, "supervisor rebuilt the dead shard");
  gate(health == cluster::ShardHealth::kHealthy,
       "killed shard walked back to healthy through probation");
  gate(fresh_after >= fresh_before - 0.05,
       "final-third fresh fraction within 5 points of pre-kill");
  return failures == 0 ? 0 : 1;
}

/// --resize: live 4 -> 6 rebalance halfway through the replay. The epoch
/// swap must drain in-flight work on the old routing (zero errors), the
/// consistent-hash ring must move only the bounded-remap row set, and the
/// two new shards must actually take traffic afterwards.
int RunResize(bool smoke) {
  const BenchWorld world = BuildWorld(smoke);
  const int64_t num_users = smoke ? 20000 : 1000000;
  const auto stream = MakeUserReplay(world.dataset, num_users);
  constexpr size_t kFromShards = 4;
  constexpr size_t kToShards = 6;

  cluster::ShardedRuntime runtime(
      ShardedConfig(kFromShards, world.prior));
  const auto published = runtime.PublishSharded(MakeSnapshot(world));
  if (!published.ok()) {
    std::printf("FATAL: publish failed: %s\n",
                published.status().ToString().c_str());
    return 1;
  }

  std::printf("resize: %lld users, %zu -> %zu shards at the halfway mark\n\n",
              static_cast<long long>(num_users), kFromShards, kToShards);

  int64_t errors = 0;
  int64_t tier_tagged = 0;
  cluster::ResizeReport report;
  bool resized = false;
  const size_t resize_at = stream.size() / 2;
  for (size_t begin = 0; begin < stream.size(); begin += kChunk) {
    if (!resized && begin >= resize_at) {
      const auto resize_or = runtime.ResizeShards(kToShards);
      if (!resize_or.ok()) {
        std::printf("FATAL: resize failed: %s\n",
                    resize_or.status().ToString().c_str());
        return 1;
      }
      report = *resize_or;
      resized = true;
    }
    const size_t end = std::min(begin + kChunk, stream.size());
    const std::vector<int64_t> chunk(stream.begin() + begin,
                                     stream.begin() + end);
    for (const auto& result : runtime.ScoreBatch(chunk)) {
      if (!result.ok()) {
        ++errors;
        continue;
      }
      ++tier_tagged;
    }
  }
  runtime.Shutdown();

  int64_t shard4_enqueued = 0;
  int64_t shard5_enqueued = 0;
  for (const auto& [name, value] : runtime.Collect().counters) {
    if (name == "shard4.enqueued") shard4_enqueued = value;
    if (name == "shard5.enqueued") shard5_enqueued = value;
  }
  std::printf(
      "requests %zu, errors %lld; moved %lld/%lld rows, epoch %llu, new "
      "shards enqueued %lld / %lld\n\n",
      stream.size(), static_cast<long long>(errors),
      static_cast<long long>(report.moved_rows),
      static_cast<long long>(report.total_rows),
      static_cast<unsigned long long>(report.epoch),
      static_cast<long long>(shard4_enqueued),
      static_cast<long long>(shard5_enqueued));

  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS:" : "FAIL:", what);
    if (!ok) ++failures;
  };
  gate(errors == 0, "zero dropped or errored requests through the resize");
  gate(tier_tagged == static_cast<int64_t>(stream.size()),
       "every response tier-tagged");
  gate(report.moved_only_within_bound,
       "only bounded-remap rows moved (ring guarantee held)");
  gate(report.moved_rows < report.total_rows,
       "resize moved a strict subset of the catalog");
  gate(shard4_enqueued > 0 && shard5_enqueued > 0,
       "both new shards took traffic after the swap");
  return failures == 0 ? 0 : 1;
}

/// --shed: per-tenant admission isolation. Tenant "limited" gets a
/// starvation quota; tenant "unlimited" shares the process. The limited
/// tenant's overload must turn into tier-tagged sheds (never errors, no
/// shard queueing), and the unlimited tenant's tail must stay within
/// 1.5x of a baseline run where it has the process to itself.
int RunShed(bool smoke) {
  const BenchWorld world = BuildWorld(smoke);
  const int64_t num_users = smoke ? 20000 : 500000;
  const auto stream = MakeUserReplay(world.dataset, num_users);
  constexpr size_t kShards = 2;

  const auto make_tenant = [&](const std::string& name, double qps) {
    cluster::TenantConfig tenant;
    tenant.name = name;
    tenant.sharded = ShardedConfig(kShards, world.prior);
    tenant.admission_qps = qps;
    tenant.admission_burst = qps > 0.0 ? 64.0 : 0.0;
    return tenant;
  };
  const auto worst_fresh_p99 = [](const cluster::ShardedRuntime& runtime) {
    double worst = 0.0;
    for (size_t s = 0; s < runtime.num_shards(); ++s) {
      worst = std::max(
          worst, runtime.shard(s).stats().fresh_latency_us.Percentile(0.99));
    }
    return worst;
  };

  // Baseline: the unlimited tenant alone in the process.
  double baseline_p99 = 0.0;
  {
    cluster::TenantRegistry registry;
    auto added = registry.AddTenant(make_tenant("unlimited", 0.0));
    if (!added.ok() || !(*added)->PublishSharded(MakeSnapshot(world)).ok()) {
      std::printf("FATAL: baseline tenant setup failed\n");
      return 1;
    }
    for (size_t begin = 0; begin < stream.size(); begin += kChunk) {
      const size_t end = std::min(begin + kChunk, stream.size());
      registry.ScoreBatch("unlimited",
                          {stream.begin() + begin, stream.begin() + end});
    }
    baseline_p99 = worst_fresh_p99(*registry.Get("unlimited"));
    registry.Shutdown();
  }

  // Contended: the same workload for "unlimited", plus a starved tenant
  // hammering the same chunks through a near-zero quota.
  cluster::TenantRegistry registry;
  for (const auto& tenant :
       {make_tenant("unlimited", 0.0), make_tenant("limited", 1e-6)}) {
    auto added = registry.AddTenant(tenant);
    if (!added.ok() || !(*added)->PublishSharded(MakeSnapshot(world)).ok()) {
      std::printf("FATAL: tenant '%s' setup failed\n", tenant.name.c_str());
      return 1;
    }
  }
  std::printf(
      "shed: %lld users x 2 tenants over %zu shards each; tenant "
      "'limited' quota ~0 rows/s\n\n",
      static_cast<long long>(num_users), kShards);

  int64_t limited_errors = 0;
  int64_t limited_fresh = 0;
  int64_t limited_tagged = 0;
  int64_t unlimited_errors = 0;
  int64_t unlimited_fresh = 0;
  std::thread limited_client([&] {
    for (size_t begin = 0; begin < stream.size(); begin += kChunk) {
      const size_t end = std::min(begin + kChunk, stream.size());
      const std::vector<int64_t> chunk(stream.begin() + begin,
                                       stream.begin() + end);
      for (const auto& result : registry.ScoreBatch("limited", chunk)) {
        if (!result.ok()) {
          ++limited_errors;
          continue;
        }
        ++limited_tagged;
        if (result.value().tier == runtime::ServingTier::kFresh) {
          ++limited_fresh;
        }
      }
    }
  });
  for (size_t begin = 0; begin < stream.size(); begin += kChunk) {
    const size_t end = std::min(begin + kChunk, stream.size());
    const std::vector<int64_t> chunk(stream.begin() + begin,
                                     stream.begin() + end);
    for (const auto& result : registry.ScoreBatch("unlimited", chunk)) {
      if (!result.ok()) {
        ++unlimited_errors;
        continue;
      }
      if (result.value().tier == runtime::ServingTier::kFresh) {
        ++unlimited_fresh;
      }
    }
  }
  limited_client.join();
  const double contended_p99 = worst_fresh_p99(*registry.Get("unlimited"));
  int64_t shed = 0;
  for (const auto& [name, value] : registry.Collect().counters) {
    if (name == "tenant.limited.admission.shed") shed = value;
  }
  registry.Shutdown();

  std::printf(
      "limited: %lld tagged (%lld fresh, %lld shed, %lld errors); "
      "unlimited: %lld fresh, %lld errors\nunlimited worst-shard fresh "
      "p99: baseline %.0fus, contended %.0fus\n\n",
      static_cast<long long>(limited_tagged),
      static_cast<long long>(limited_fresh),
      static_cast<long long>(shed),
      static_cast<long long>(limited_errors),
      static_cast<long long>(unlimited_fresh),
      static_cast<long long>(unlimited_errors),
      baseline_p99, contended_p99);

  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS:" : "FAIL:", what);
    if (!ok) ++failures;
  };
  gate(limited_errors == 0 && unlimited_errors == 0,
       "zero errors on both tenants");
  gate(limited_tagged == static_cast<int64_t>(stream.size()),
       "every over-quota row answered tier-tagged, not dropped");
  gate(shed > 0 && limited_fresh < static_cast<int64_t>(stream.size()),
       "the starved tenant actually shed load");
  gate(unlimited_fresh == static_cast<int64_t>(stream.size()),
       "the unlimited tenant stayed all-fresh");
  const bool p99_ok = contended_p99 <= 1.5 * baseline_p99;
  if (smoke) {
    std::printf("%s unlimited tenant p99 within 1.5x of isolated baseline "
                "(report-only: --smoke)\n",
                p99_ok ? "PASS:" : "WARN:");
  } else {
    gate(p99_ok, "unlimited tenant p99 within 1.5x of isolated baseline");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace atnn::bench

int main(int argc, char** argv) {
  atnn::FlagParser flags("Sharded scatter/gather serving benchmark");
  flags.AddBool("chaos", false,
                "kill one shard mid-replay instead of the shard sweep");
  flags.AddBool("recover", false,
                "chaos kill plus a ShardSupervisor that must heal the "
                "shard and restore the fresh tier");
  flags.AddBool("resize", false,
                "live-resize 4 -> 6 shards halfway through the replay");
  flags.AddBool("shed", false,
                "starved tenant sheds tier-tagged while an unlimited "
                "tenant's tail stays isolated");
  flags.AddBool("smoke", false,
                "small world + stream (and report-only p99 gates), for "
                "CI sanitizer jobs");
  const atnn::Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  const bool smoke = flags.GetBool("smoke");
  int failures = 0;
  bool ran = false;
  if (flags.GetBool("chaos")) {
    ran = true;
    failures += atnn::bench::RunChaos(smoke);
  }
  if (flags.GetBool("recover")) {
    ran = true;
    failures += atnn::bench::RunRecover(smoke);
  }
  if (flags.GetBool("resize")) {
    ran = true;
    failures += atnn::bench::RunResize(smoke);
  }
  if (flags.GetBool("shed")) {
    ran = true;
    failures += atnn::bench::RunShed(smoke);
  }
  if (ran) return failures == 0 ? 0 : 1;
  return atnn::bench::RunSweep(smoke);
}
