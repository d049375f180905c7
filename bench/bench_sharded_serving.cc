// Sharded multi-tenant serving bench: the scatter/gather layer of
// src/cluster under a replay of millions of distinct simulated users.
//
// Protocols:
//
//   (default) shard sweep — the identical Zipf-skewed workload replayed
//   against 1, 2, 4 and 8 shards of the same catalog. Gate: the worst
//   per-shard fresh-tier p99 within 1.5x of the 1-shard baseline at every
//   shard count the host has the cores to drain in parallel (adding
//   shards must not degrade any single shard's tail).
//
//   --shed — tenant "limited" gets a starvation-level admission quota
//   while tenant "unlimited" shares the process unthrottled. Gate: the
//   unlimited tenant's worst-shard fresh p99 stays within 1.5x of an
//   isolated baseline run.
//
// Each timed replay must finish with zero errors, the precondition of its
// gate. What the cluster promises beyond its tails is tested: sharded
// scores, tier tagging and dead shards in ShardedRuntimeTest, kill, heal
// and live resize under load in SelfHealingTest, and quota sheds and
// tenant isolation in TenantRegistryTest. `ctest -R
// 'SelfHealingTest|ShardedRuntimeTest'` runs the drills;
// `atnn_serve --kill_shard/--resize_at/--tenant_qps` runs them
// interactively.
//
// Weights stay at their seeded initialization: routing, batching and
// degradation behaviour do not depend on what the weights converged to.
//
//   $ ./build/bench/bench_sharded_serving            # shard sweep
//   $ ./build/bench/bench_sharded_serving --shed

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/sharded_runtime.h"
#include "cluster/tenant_registry.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "core/popularity.h"
#include "perf_common.h"
#include "serving/popularity_index.h"

namespace atnn::bench {
namespace {

/// Total worker threads across the whole runtime, re-partitioned as the
/// shard count grows — the sweep models one fixed machine sharded N ways,
/// so the p99 gate measures scatter/gather overhead, not thread
/// oversubscription (1 shard x 8 workers vs 8 shards x 8 workers would
/// compare different machines).
constexpr size_t kWorkerBudget = 8;

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

struct BenchWorld {
  data::TmallDataset dataset;
  std::unique_ptr<core::AtnnModel> model;
  std::unique_ptr<core::PopularityPredictor> predictor;
  std::shared_ptr<serving::PopularityIndex> prior;
};

BenchWorld BuildWorld() {
  data::TmallConfig world = PaperScaleTmallConfig();
  world.num_users = 1000;
  world.num_items = 2000;
  world.num_new_items = 600;
  world.num_interactions = 50000;
  BenchWorld built{data::GenerateTmallDataset(world), nullptr, nullptr,
                   nullptr};
  core::NormalizeTmallInPlace(&built.dataset);

  core::AtnnConfig config;
  config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  config.seed = 7;
  built.model = std::make_unique<core::AtnnModel>(
      *built.dataset.user_schema, *built.dataset.item_profile_schema,
      *built.dataset.item_stats_schema, config);
  const auto group = core::SelectActiveUsers(built.dataset, 300);
  built.predictor = std::make_unique<core::PopularityPredictor>(
      core::PopularityPredictor::Build(*built.model, built.dataset, group));

  // "Yesterday's" popularity index over the arrivals — the degraded tier
  // an over-quota or timed-out row falls back to.
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

int RunSweep() {
  const BenchWorld world = BuildWorld();
  constexpr int64_t kUsers = 2000000;  // millions of distinct users
  const auto stream = MakeUserReplay(world.dataset, kUsers);
  std::printf("shard sweep: %lld distinct simulated users, chunk %zu\n\n",
              static_cast<long long>(kUsers), kReplayChunk);

  TablePrinter table("sharded serving sweep — identical workload per row");
  table.SetHeader({"shards", "wall_s", "req/s", "errors",
                   "worst_shard_p99_us"});
  Gates gates;
  double baseline_p99 = 0.0;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    cluster::ShardedRuntime runtime(ShardedConfig(shards, world.prior));
    const auto published = runtime.PublishSharded(MakeSnapshot(world));
    if (!published.ok()) {
      std::printf("FATAL: publish failed at %zu shards: %s\n", shards,
                  published.status().ToString().c_str());
      return 1;
    }
    const ReplayOutcome outcome = ReplayInChunks(stream, runtime);
    runtime.Shutdown();
    if (shards == 1) baseline_p99 = outcome.worst_shard_p99_us;
    table.AddRow(
        {std::to_string(shards), TablePrinter::Num(outcome.wall_s, 2),
         TablePrinter::Num(static_cast<double>(stream.size()) / outcome.wall_s,
                           0),
         std::to_string(outcome.errors),
         TablePrinter::Num(outcome.worst_shard_p99_us, 0)});

    gates.Check(outcome.errors == 0,
                std::to_string(shards) + " shards: zero request errors");
    if (shards == 1) continue;
    // The tail gate is only meaningful when the shards' queue drains can
    // actually overlap: with fewer cores than shards the kernel
    // serializes the per-shard workers, the last-scheduled shard's oldest
    // request waits out the whole chunk drain, and the p99 measures the
    // scheduler instead of the scatter/gather layer.
    if (std::thread::hardware_concurrency() < shards) {
      std::printf("SKIP: %zu shards: p99 gate (fewer cores than shards)\n",
                  shards);
      continue;
    }
    gates.Check(outcome.worst_shard_p99_us <= 1.5 * baseline_p99,
                std::to_string(shards) +
                    " shards: worst per-shard fresh p99 within 1.5x of "
                    "1-shard baseline (" +
                    TablePrinter::Num(outcome.worst_shard_p99_us, 0) +
                    "us vs " + TablePrinter::Num(baseline_p99, 0) + "us)");
  }
  std::printf("\n");
  table.Print();
  return gates.exit_code();
}

/// --shed: per-tenant admission isolation. Tenant "limited" gets a
/// starvation quota; tenant "unlimited" shares the process. The unlimited
/// tenant's tail must stay within 1.5x of a baseline run where it has the
/// process to itself.
int RunShed() {
  const BenchWorld world = BuildWorld();
  constexpr int64_t kUsers = 500000;
  const auto stream = MakeUserReplay(world.dataset, kUsers);
  constexpr size_t kShards = 2;

  const auto make_tenant = [&](const std::string& name, double qps) {
    cluster::TenantConfig tenant;
    tenant.name = name;
    tenant.sharded = ShardedConfig(kShards, world.prior);
    tenant.admission_qps = qps;
    tenant.admission_burst = qps > 0.0 ? 64.0 : 0.0;
    return tenant;
  };
  const auto replay_tenant = [&](cluster::TenantRegistry& registry,
                                 const std::string& name) {
    return ReplayInChunks(stream, *registry.Get(name),
                          [&](const std::vector<int64_t>& chunk) {
                            return registry.ScoreBatch(name, chunk);
                          });
  };

  // Baseline: the unlimited tenant alone in the process.
  ReplayOutcome baseline;
  {
    cluster::TenantRegistry registry;
    auto added = registry.AddTenant(make_tenant("unlimited", 0.0));
    if (!added.ok() || !(*added)->PublishSharded(MakeSnapshot(world)).ok()) {
      std::printf("FATAL: baseline tenant setup failed\n");
      return 1;
    }
    baseline = replay_tenant(registry, "unlimited");
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
      static_cast<long long>(kUsers), kShards);

  ReplayOutcome limited;
  std::thread limited_client(
      [&] { limited = replay_tenant(registry, "limited"); });
  const ReplayOutcome contended = replay_tenant(registry, "unlimited");
  limited_client.join();
  int64_t shed = 0;
  for (const auto& [name, value] : registry.Collect().counters) {
    if (name == "tenant.limited.admission.shed") shed = value;
  }
  registry.Shutdown();

  std::printf(
      "limited: %lld shed, %lld errors; unlimited: %lld errors\n"
      "unlimited worst-shard fresh p99: baseline %.0fus, contended "
      "%.0fus\n\n",
      static_cast<long long>(shed), static_cast<long long>(limited.errors),
      static_cast<long long>(contended.errors), baseline.worst_shard_p99_us,
      contended.worst_shard_p99_us);

  Gates gates;
  gates.Check(limited.errors == 0 && contended.errors == 0,
              "zero errors on both tenants");
  gates.Check(
      contended.worst_shard_p99_us <= 1.5 * baseline.worst_shard_p99_us,
      "unlimited tenant p99 within 1.5x of isolated baseline");
  return gates.exit_code();
}

}  // namespace
}  // namespace atnn::bench

int main(int argc, char** argv) {
  atnn::FlagParser flags("Sharded scatter/gather serving benchmark");
  flags.AddBool("shed", false,
                "starved tenant sheds while an unlimited tenant's tail "
                "stays isolated, instead of the shard sweep");
  const atnn::Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  return flags.GetBool("shed") ? atnn::bench::RunShed()
                               : atnn::bench::RunSweep();
}
