// Serving CLI: drives runtime/InferenceRuntime with a replayed request
// stream. Builds the Tmall world from a seed, publishes a model snapshot
// into the runtime, then replays a Zipf-skewed request log from one or
// more client threads — optionally republishing the snapshot at a fixed
// cadence to exercise hot swaps under load. Prints the runtime's stage
// stats (enqueue wait, batch sizes, score time, end-to-end latency) and
// the top-ranked arrivals observed through the runtime.
//
//   $ atnn_serve --requests=20000 --workers=4 --clients=2
//   $ atnn_serve --admission=reject --queue_capacity=128   # load-shedding
//   $ atnn_serve --swap_every_ms=100                       # hot-swap churn
//   $ atnn_serve --chaos --deadline_us=20000               # fault drill
//   $ atnn_serve --shards=4                                # sharded catalog
//   $ atnn_serve --shards=2 --tenants=atnn,multitask       # multi-tenant
//   $ atnn_serve --shards=3 --kill_shard=1                 # kill + self-heal
//   $ atnn_serve --shards=4 --resize_at=0.5 --resize_to=6  # live resize
//   $ atnn_serve --shards=2 --tenant_qps=5000              # admission quota
//   $ atnn_serve --stream_train --stream_days=6            # online training
//
// --stream_train runs the streaming train-to-serve loop (DESIGN.md §17)
// concurrently with the replay: a trainer thread consumes the market's
// daily arrival stream, warm-starts from the served weights, incrementally
// trains on each cohort's sampled feedback, and hot-swaps a fresh snapshot
// into the live serving path after every day — single-runtime publishes or
// a PublishSharded fan-out across every tenant, whichever path is active.
// The end-of-run table reports per-day staleness (AUC of the
// previously-served weights vs the freshly-trained weights on the newest
// cohort) and publish latency. --stream_negatives / --stream_one_backprop
// switch on the cross-batch negative cache and one-backprop alternation.
//
// --shards/--tenants switch to the cluster front-end: the catalog is
// consistent-hash sharded across per-shard runtimes behind a
// scatter/gather layer, optionally with several named tenants served side
// by side (each with its own shard set, deadline budget, and
// "tenant.<name>.shard<i>.*" metrics namespace). --kill_shard=i shuts
// shard i down on every tenant mid-replay to demonstrate degraded serving
// through the popularity prior — and starts a ShardSupervisor per tenant,
// whose probes find the dead shard, rebuild it from the last published
// snapshot slice, and re-admit it through its circuit breaker.
// --resize_at=f with --resize_to=M live-resizes every tenant to M shards
// after fraction f of the replay (zero dropped or errored requests is the
// pass condition). --tenant_qps=N puts a token-bucket admission quota on
// every tenant: over-quota rows shed tier-tagged through the prior, never
// as errors.
//
// --chaos turns on the runtime's seeded fault injector (worker delays,
// batch failures, queue rejections) and attempts corrupt snapshot
// publishes mid-run; the degraded-mode fallback chain (stale cache ->
// popularity prior -> global mean) must keep answering every request, and
// the final stats table shows the serving-tier distribution. --chaos and
// --swap_every_ms drive the single runtime only, and --kill_shard,
// --resize_at and --tenant_qps the sharded path only; on the other path
// each is a usage error.
//
// Optionally loads trained weights with --snapshot= (a file written by
// atnn_train); by default it serves the seeded initialization, which
// exercises the identical code path. Snapshot loads retry transient I/O
// failures with exponential backoff before giving up.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_supervisor.h"
#include "cluster/tenant_registry.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/atnn.h"
#include "core/feature_adapter.h"
#include "core/popularity.h"
#include "data/tmall.h"
#include "obs/exporter.h"
#include "quant/quantized_generator.h"
#include "runtime/inference_runtime.h"
#include "serving/compute_flags.h"
#include "serving/model_snapshot.h"
#include "serving/popularity_index.h"
#include "sim/arrival_stream.h"
#include "stream/streaming_trainer.h"

namespace {

constexpr char kModelTag[] = "atnn-cli-v1";

int Run(int argc, const char* const* argv) {
  using namespace atnn;

  FlagParser flags(
      "atnn_serve — replay a request stream through the micro-batching "
      "inference runtime");
  flags.AddInt64("users", 2000, "number of users in the generated world");
  flags.AddInt64("items", 4000, "number of catalog items");
  flags.AddInt64("new_items", 1000, "number of new arrivals");
  flags.AddInt64("interactions", 150000, "number of interactions");
  flags.AddInt64("data_seed", 20210304, "world seed");
  flags.AddInt64("vector_dim", 32, "generator output width");
  flags.AddInt64("user_group", 500, "active-user group for the mean vector");
  flags.AddString("snapshot", "",
                  "optional: load trained weights from this atnn_train "
                  "snapshot (must match the world flags)");

  flags.AddInt64("requests", 20000, "total requests to replay");
  flags.AddInt64("clients", 1, "client threads submitting requests");
  flags.AddInt64("workers", 4, "runtime worker threads");
  flags.AddInt64("max_batch", 64, "micro-batch flush size");
  flags.AddInt64("max_delay_us", 1000, "micro-batch flush deadline");
  flags.AddInt64("queue_capacity", 8192, "bounded request queue size");
  flags.AddString("admission", "block",
                  "backpressure policy: block | reject");
  flags.AddBool("score_cache", true,
                "memoize scores per snapshot version");
  flags.AddInt64("swap_every_ms", 0,
                 "if > 0, republish the snapshot at this cadence while "
                 "the stream replays (hot-swap churn)");
  flags.AddBool("stream_train", false,
                "run the streaming train-to-serve loop concurrently with "
                "the replay: consume the daily arrival stream, train "
                "incrementally on each cohort's feedback, and hot-swap "
                "fresh snapshots into the live serving path");
  flags.AddInt64("stream_days", 6, "simulated days in the arrival stream");
  flags.AddInt64("stream_feedback", 40,
                 "feedback impressions sampled per cohort item per day");
  flags.AddInt64("stream_epochs", 1,
                 "incremental training epochs per streamed day");
  flags.AddInt64("stream_replay", 0,
                 "historical interactions replayed (anti-forgetting) into "
                 "each day's training set");
  flags.AddBool("stream_negatives", false,
                "cross-batch negative cache (CBNS) during streaming "
                "updates");
  flags.AddBool("stream_one_backprop", false,
                "alternate a single backprop per step between the D and G "
                "objectives during streaming updates");
  flags.AddInt64("stream_pause_ms", 0,
                 "pause between streamed days (spreads publishes across "
                 "the replay window)");
  flags.AddDouble("zipf", 1.1, "request-stream skew exponent");
  flags.AddInt64("top_k", 10, "ranked arrivals to print at the end");
  flags.AddInt64("deadline_us", 0,
                 "per-request completion budget; expired requests are "
                 "answered from the degraded fallback chain (0 = none)");
  flags.AddBool("chaos", false,
                "inject worker delays, batch failures, queue rejections, "
                "and corrupt snapshot publishes while serving");
  flags.AddInt64("chaos_seed", 20210304, "fault-injector seed");
  flags.AddDouble("chaos_delay_p", 0.05,
                  "per-batch probability of an injected worker delay");
  flags.AddInt64("chaos_delay_us", 2000, "injected worker delay");
  flags.AddDouble("chaos_batch_fail_p", 0.02,
                  "per-batch probability of a forced scoring failure");
  flags.AddDouble("chaos_reject_p", 0.02,
                  "per-request probability of a simulated full queue");
  flags.AddInt64("shards", 0,
                 "if > 0, serve through the consistent-hash sharded "
                 "front-end with this many per-shard runtimes (0 = classic "
                 "single-runtime path)");
  flags.AddString("tenants", "",
                  "comma-separated tenant names served side by side, each "
                  "behind its own shard set (implies --shards, default 2)");
  flags.AddInt64("kill_shard", -1,
                 "sharded path only: shut this shard down on every tenant "
                 "halfway through the replay (degraded-serving drill)");
  flags.AddBool("auto_recover", true,
                "with --kill_shard: run a ShardSupervisor per tenant so the "
                "killed shard is rebuilt from the last snapshot slice and "
                "re-admitted through its circuit breaker");
  flags.AddDouble("resize_at", 0.0,
                  "sharded path only: fraction of the replay (0,1) after "
                  "which every tenant is live-resized to --resize_to shards "
                  "(0 disables)");
  flags.AddInt64("resize_to", 0,
                 "target shard count for the --resize_at drill");
  flags.AddDouble("tenant_qps", 0.0,
                  "sharded path only: per-tenant admission quota in rows/s; "
                  "over-quota rows are shed tier-tagged through the prior "
                  "(0 = unlimited)");
  serving::AddComputeFlags(
      &flags,
      "serving weight format: fp32 | bf16 | int8. Non-fp32 "
      "quantizes the generator after the snapshot load and "
      "serves through it; the fp32 model is dropped from the "
      "published snapshot");
  flags.AddString("metrics_json", "",
                  "append one JSON metrics line to this file every "
                  "--metrics_interval_ms while serving (plus a final line "
                  "at shutdown); empty disables");
  flags.AddInt64("metrics_interval_ms", 1000,
                 "flush period for --metrics_json");
  flags.AddBool("help", false, "print usage");

  Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }
  const auto compute_or = serving::ResolveComputeFlags(flags);
  if (!compute_or.ok()) {
    std::fprintf(stderr, "%s\n", compute_or.status().ToString().c_str());
    return 2;
  }
  const serving::ComputeOptions& compute = *compute_or;
  std::printf("kernel backend: %s\n", compute.backend_name.c_str());
  const std::string admission = flags.GetString("admission");
  if (admission != "block" && admission != "reject") {
    std::fprintf(stderr, "--admission must be 'block' or 'reject'\n");
    return 2;
  }
  // Validate here so a typo'd flag yields a usage error, not the
  // ATNN_CHECK abort the library reserves for programmer errors.
  if (flags.GetInt64("workers") < 1) {
    std::fprintf(stderr, "--workers must be >= 1\n");
    return 2;
  }
  if (flags.GetInt64("max_batch") < 1 ||
      flags.GetInt64("queue_capacity") < flags.GetInt64("max_batch")) {
    std::fprintf(stderr,
                 "--queue_capacity must be >= --max_batch (>= 1): the "
                 "queue has to hold at least one full batch\n");
    return 2;
  }
  // An empty user group would abort once the predictor is built. A drill
  // flag on the serving path that does not run its drill would exit 0 with
  // nothing drilled, so it is refused before the world is generated.
  const bool sharded =
      flags.GetInt64("shards") > 0 || !flags.GetString("tenants").empty();
  const struct {
    const char* flag;
    bool set;
    bool sharded_only;
  } drills[] = {
      {"kill_shard", flags.GetInt64("kill_shard") >= 0, true},
      {"resize_at", flags.GetDouble("resize_at") != 0.0, true},
      {"tenant_qps", flags.GetDouble("tenant_qps") > 0.0, true},
      {"chaos", flags.GetBool("chaos"), false},
      {"swap_every_ms", flags.GetInt64("swap_every_ms") > 0, false},
  };
  if (flags.GetInt64("user_group") < 1) {
    status = Status::InvalidArgument("user_group must be >= 1");
  }
  for (const auto& drill : drills) {
    if (status.ok() && drill.set && drill.sharded_only != sharded) {
      status = Status::InvalidArgument(
          std::string("--") + drill.flag +
          (drill.sharded_only
               ? " runs only on the sharded path (--shards or --tenants)"
               : " runs only on the single-runtime path (without --shards "
                 "or --tenants)"));
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  // --- world + model ---
  data::TmallConfig world;
  world.num_users = flags.GetInt64("users");
  world.num_items = flags.GetInt64("items");
  world.num_new_items = flags.GetInt64("new_items");
  world.num_interactions = flags.GetInt64("interactions");
  world.seed = static_cast<uint64_t>(flags.GetInt64("data_seed"));
  data::TmallDataset dataset = data::GenerateTmallDataset(world);
  core::NormalizeTmallInPlace(&dataset);

  core::AtnnConfig config;
  config.tower.deep_dims = {64, 32};
  config.tower.cross_layers = 3;
  config.tower.output_dim = flags.GetInt64("vector_dim");
  config.seed = 7;
  core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                        *dataset.item_stats_schema, config);
  if (!flags.GetString("snapshot").empty()) {
    status = serving::LoadModelSnapshotWithRetry(
        &model, flags.GetString("snapshot"), kModelTag);
    if (!status.ok()) {
      std::fprintf(stderr, "snapshot load failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  const auto group =
      core::SelectActiveUsers(dataset, flags.GetInt64("user_group"));
  const auto predictor =
      core::PopularityPredictor::Build(model, dataset, group);

  // Precomputed popularity index over the arrivals: the end-of-run ranking
  // display, and the tier-2 prior of the degraded fallback chain.
  auto prior = std::make_shared<serving::PopularityIndex>();
  const auto prior_scores =
      predictor.ScoreItems(model, dataset, dataset.new_items);
  prior->BulkLoad(dataset.new_items, prior_scores);

  // Shared by both serving paths: the snapshot to publish and the
  // Zipf-skewed request stream over the new arrivals.
  const quant::Precision precision = compute.precision;
  runtime::ServingSnapshot snapshot;
  std::shared_ptr<const quant::QuantizedGenerator> quantized;
  if (precision == quant::Precision::kFp32) {
    snapshot.model = runtime::Unowned(&model);
  } else {
    // Calibrate on the cold-start arrivals — exactly the rows this process
    // is about to serve. The fp32 model stays on the stack only to build
    // the artifact; the published snapshot carries the quantized weights.
    const data::BlockBatch calibration =
        data::GatherBlock(dataset.item_profiles, dataset.new_items);
    auto built =
        quant::QuantizedGenerator::Build(model, calibration, precision);
    if (!built.ok()) {
      std::fprintf(stderr, "quantization failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    quantized = std::make_shared<const quant::QuantizedGenerator>(
        std::move(*built));
    snapshot.quantized = quantized;
    std::printf("precision: %s (%.2fx of fp32 bytes)\n",
                quant::PrecisionName(precision),
                static_cast<double>(quantized->QuantizedByteSize()) /
                    static_cast<double>(quantized->Fp32ByteSize()));
  }
  snapshot.predictor = runtime::Unowned(&predictor);
  snapshot.item_profiles = runtime::Unowned(&dataset.item_profiles);
  snapshot.tag = "atnn_serve";

  const auto total_requests = flags.GetInt64("requests");
  const auto num_clients =
      std::max<int64_t>(1, flags.GetInt64("clients"));
  std::vector<int64_t> stream;
  stream.reserve(static_cast<size_t>(total_requests));
  {
    Rng rng(world.seed ^ 0x5e77eULL);
    for (int64_t i = 0; i < total_requests; ++i) {
      stream.push_back(dataset.new_items[rng.Zipf(
          dataset.new_items.size(), flags.GetDouble("zipf"))]);
    }
  }

  // --- streaming train-to-serve loop (--stream_train) ---
  // The trainer thread is shared by both serving paths; only the PublishFn
  // differs (single-runtime Publish vs per-tenant PublishSharded fan-out).
  // The arrival stream reads the immutable world (new_items, activity,
  // ground truth); the trainer owns its growing dataset copy.
  const bool stream_train = flags.GetBool("stream_train");
  std::unique_ptr<atnn::stream::StreamingTrainer> stream_trainer;
  std::unique_ptr<sim::ArrivalStream> arrivals;
  std::vector<atnn::stream::DayReport> day_reports;
  Status stream_status;
  std::thread stream_thread;
  const auto start_stream = [&](atnn::stream::PublishFn publish_fn) {
    atnn::stream::StreamingTrainerConfig stream_config;
    stream_config.model = config;
    stream_config.train.epochs =
        static_cast<int>(flags.GetInt64("stream_epochs"));
    stream_config.train.seed = world.seed;
    stream_config.train.cross_batch_negatives =
        flags.GetBool("stream_negatives");
    stream_config.train.one_backprop = flags.GetBool("stream_one_backprop");
    stream_config.active_user_group = flags.GetInt64("user_group");
    stream_config.replay_interactions = flags.GetInt64("stream_replay");
    stream_config.tag = "atnn_serve-stream";
    stream_trainer = std::make_unique<atnn::stream::StreamingTrainer>(
        dataset, stream_config, std::move(publish_fn));
    stream_status = stream_trainer->WarmStartFrom(model);
    if (!stream_status.ok()) return;
    sim::ArrivalStreamConfig arrival_config;
    arrival_config.num_days =
        static_cast<int>(flags.GetInt64("stream_days"));
    arrival_config.feedback_per_item =
        static_cast<int>(flags.GetInt64("stream_feedback"));
    arrival_config.seed = world.seed ^ 0xa55a7e11ULL;
    arrivals = std::make_unique<sim::ArrivalStream>(&dataset,
                                                    arrival_config);
    const int64_t pause_ms = flags.GetInt64("stream_pause_ms");
    stream_thread = std::thread([&, pause_ms] {
      while (!arrivals->Done()) {
        auto report = stream_trainer->Step(arrivals.get());
        if (!report.ok()) {
          stream_status = report.status();
          return;
        }
        day_reports.push_back(std::move(*report));
        if (pause_ms > 0 && !arrivals->Done()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
        }
      }
    });
  };
  // Joins the trainer and prints the per-day staleness table; returns the
  // number of failures to fold into the exit code.
  const auto finish_stream = [&]() -> int64_t {
    if (!stream_train) return 0;
    if (stream_thread.joinable()) stream_thread.join();
    if (!stream_status.ok()) {
      std::fprintf(stderr, "stream training failed: %s\n",
                   stream_status.ToString().c_str());
      return 1;
    }
    int64_t failures = 0;
    std::printf("\nstreamed %zu day(s):\n", day_reports.size());
    std::printf("  day  cohort  feedback  served_auc  fresh_auc  "
                "gap      train_ms  publish_ms  version\n");
    for (const auto& report : day_reports) {
      if (!report.published) ++failures;
      std::printf("  %3d  %6lld  %8lld  %10.4f  %9.4f  %+7.4f  %8.1f  "
                  "%10.2f  %s\n",
                  report.day,
                  static_cast<long long>(report.cohort_items),
                  static_cast<long long>(report.feedback_rows),
                  report.served_auc, report.fresh_auc,
                  report.staleness_gap, report.train_ms, report.publish_ms,
                  report.published
                      ? std::to_string(report.published_version).c_str()
                      : "REJECTED");
    }
    return failures;
  };

  // --- sharded multi-tenant path (--shards / --tenants) ---
  if (sharded) {
    std::vector<std::string> tenant_names;
    {
      const std::string& spec = flags.GetString("tenants");
      std::string name;
      for (const char c : spec) {
        if (c == ',') {
          if (!name.empty()) tenant_names.push_back(name);
          name.clear();
        } else {
          name.push_back(c);
        }
      }
      if (!name.empty()) tenant_names.push_back(name);
      if (tenant_names.empty()) tenant_names.push_back("atnn");
    }
    const size_t num_shards = static_cast<size_t>(
        flags.GetInt64("shards") > 0 ? flags.GetInt64("shards") : 2);
    const int64_t kill_shard = flags.GetInt64("kill_shard");
    if (kill_shard >= static_cast<int64_t>(num_shards)) {
      std::fprintf(stderr, "--kill_shard must be < --shards\n");
      return 2;
    }
    const double resize_at = flags.GetDouble("resize_at");
    const int64_t resize_to = flags.GetInt64("resize_to");
    if (resize_at < 0.0 || resize_at >= 1.0) {
      std::fprintf(stderr, "--resize_at must be in [0, 1)\n");
      return 2;
    }
    if (resize_at > 0.0 && resize_to < 1) {
      std::fprintf(stderr, "--resize_at requires --resize_to >= 1\n");
      return 2;
    }

    cluster::TenantRegistry registry;
    for (const std::string& name : tenant_names) {
      cluster::TenantConfig tenant;
      tenant.name = name;
      tenant.sharded.num_shards = num_shards;
      tenant.sharded.default_deadline_us = flags.GetInt64("deadline_us");
      tenant.admission_qps = flags.GetDouble("tenant_qps");
      tenant.sharded.prior = prior;
      tenant.sharded.shard.num_workers =
          static_cast<size_t>(flags.GetInt64("workers"));
      tenant.sharded.shard.enable_score_cache = flags.GetBool("score_cache");
      tenant.sharded.shard.batcher.max_batch_size =
          static_cast<size_t>(flags.GetInt64("max_batch"));
      tenant.sharded.shard.batcher.max_delay_us =
          flags.GetInt64("max_delay_us");
      tenant.sharded.shard.batcher.queue_capacity =
          static_cast<size_t>(flags.GetInt64("queue_capacity"));
      tenant.sharded.shard.batcher.admission =
          admission == "block" ? runtime::AdmissionPolicy::kBlock
                               : runtime::AdmissionPolicy::kRejectWithStatus;
      auto added = registry.AddTenant(tenant);
      if (!added.ok()) {
        std::fprintf(stderr, "tenant '%s' rejected: %s\n", name.c_str(),
                     added.status().ToString().c_str());
        return 2;
      }
      const auto tenant_published = (*added)->PublishSharded(snapshot);
      if (!tenant_published.ok()) {
        std::fprintf(stderr, "tenant '%s' publish rejected: %s\n",
                     name.c_str(),
                     tenant_published.status().ToString().c_str());
        return 1;
      }
    }
    std::printf("sharded serving: %zu tenant(s) x %zu shard(s), %lld "
                "worker(s)/shard\n",
                tenant_names.size(), num_shards,
                static_cast<long long>(flags.GetInt64("workers")));
    if (flags.GetDouble("tenant_qps") > 0.0) {
      std::printf("admission: %.0f rows/s per tenant (over-quota rows shed "
                  "tier-tagged)\n",
                  flags.GetDouble("tenant_qps"));
    }

    // Self-healing: one supervisor per tenant probes every shard, walks
    // failing shards healthy -> suspect -> dead, and rebuilds dead shards
    // from the last published snapshot slice. Started before the replay so
    // the --kill_shard drill heals without operator action.
    const bool auto_recover =
        flags.GetBool("auto_recover") && kill_shard >= 0;
    std::vector<std::unique_ptr<cluster::ShardSupervisor>> supervisors;
    if (auto_recover) {
      for (const std::string& name : tenant_names) {
        supervisors.push_back(std::make_unique<cluster::ShardSupervisor>(
            registry.Get(name), world.seed));
        supervisors.back()->Start();
      }
    }

    if (stream_train) {
      // Fan every day's fresh snapshot out to all tenants; the returned
      // version is the last tenant's (they move in lockstep from the same
      // publish sequence).
      start_stream([&](runtime::ServingSnapshot fresh)
                       -> StatusOr<uint64_t> {
        uint64_t version = 0;
        for (const std::string& name : tenant_names) {
          auto tenant_published =
              registry.Get(name)->PublishSharded(fresh);
          if (!tenant_published.ok()) return tenant_published.status();
          version = *tenant_published;
        }
        return version;
      });
      if (!stream_status.ok()) {
        std::fprintf(stderr, "stream trainer warm start failed: %s\n",
                     stream_status.ToString().c_str());
        return 1;
      }
    }

    // Replay: each client thread owns every num_clients-th chunk, and
    // chunks rotate across tenants so every tenant sees the same skew.
    Stopwatch timer;
    std::atomic<int64_t> ok_count{0};
    std::atomic<int64_t> error_count{0};
    std::array<std::atomic<int64_t>, runtime::kNumServingTiers> tiers{};
    std::vector<std::thread> client_threads;
    client_threads.reserve(static_cast<size_t>(num_clients));
    constexpr size_t kChunk = 512;
    for (int64_t c = 0; c < num_clients; ++c) {
      client_threads.emplace_back([&, c] {
        size_t chunk_index = 0;
        for (size_t begin = 0; begin < stream.size();
             begin += kChunk, ++chunk_index) {
          if (chunk_index % static_cast<size_t>(num_clients) !=
              static_cast<size_t>(c)) {
            continue;
          }
          const size_t end = std::min(begin + kChunk, stream.size());
          const std::vector<int64_t> chunk(stream.begin() + begin,
                                           stream.begin() + end);
          const auto& tenant =
              tenant_names[chunk_index % tenant_names.size()];
          for (const auto& result : registry.ScoreBatch(tenant, chunk)) {
            if (result.ok()) {
              ok_count.fetch_add(1);
              tiers[static_cast<size_t>(result.value().tier)].fetch_add(1);
            } else {
              error_count.fetch_add(1);
            }
          }
        }
      });
    }
    const auto answered = [&] {
      return ok_count.load() + error_count.load();
    };
    if (resize_at > 0.0) {
      // Live-resize drill: once the configured fraction of the stream has
      // been answered, rebalance every tenant to --resize_to shards while
      // the clients keep scoring. The epoch swap drains in-flight requests
      // on the old routing, so zero rows may drop or error.
      const int64_t trigger = static_cast<int64_t>(
          resize_at * static_cast<double>(total_requests));
      while (answered() < trigger) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (const std::string& name : tenant_names) {
        const auto resized = registry.Get(name)->ResizeShards(
            static_cast<size_t>(resize_to));
        if (!resized.ok()) {
          std::fprintf(stderr, "tenant '%s' resize failed: %s\n",
                       name.c_str(),
                       resized.status().ToString().c_str());
          error_count.fetch_add(1);
          continue;
        }
        std::printf(
            "tenant '%s' resized %zu -> %zu shards mid-replay: moved "
            "%lld/%lld rows, bounded-remap %s, epoch %llu\n",
            name.c_str(), resized->from_shards, resized->to_shards,
            static_cast<long long>(resized->moved_rows),
            static_cast<long long>(resized->total_rows),
            resized->moved_only_within_bound ? "held" : "VIOLATED",
            static_cast<unsigned long long>(resized->epoch));
        if (!resized->moved_only_within_bound) error_count.fetch_add(1);
      }
    }
    if (kill_shard >= 0) {
      // Degraded-serving drill: wait until roughly half the stream has
      // been answered, then take the shard down on every tenant. With
      // --auto_recover the supervisors notice, rebuild, and re-admit it.
      while (answered() < total_requests / 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (const std::string& name : tenant_names) {
        registry.Get(name)->ShutDownShard(static_cast<size_t>(kill_shard));
      }
      std::printf("killed shard %lld on every tenant mid-replay\n",
                  static_cast<long long>(kill_shard));
    }
    for (auto& client : client_threads) client.join();
    const double seconds = timer.ElapsedSeconds();
    if (auto_recover) {
      // Give the supervisors a bounded window to finish walking the killed
      // shard back to healthy, then report per-tenant outcomes before the
      // runtimes shut down (probing a shut-down runtime reads as dead).
      // Recovery = a rebuild actually happened AND health is back — the
      // health field alone starts at healthy and would read as recovered
      // before the supervisor has even detected the kill.
      const auto recovered = [&] {
        for (const auto& supervisor : supervisors) {
          int64_t rebuilds = 0;
          for (const auto& [name, value] :
               supervisor->Collect().counters) {
            if (name == "supervisor.rebuilds") rebuilds = value;
          }
          if (rebuilds < 1 ||
              supervisor->health(static_cast<size_t>(kill_shard)) !=
                  cluster::ShardHealth::kHealthy) {
            return false;
          }
        }
        return true;
      };
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!recovered() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      for (size_t t = 0; t < tenant_names.size(); ++t) {
        supervisors[t]->Stop();
        const auto health =
            supervisors[t]->health(static_cast<size_t>(kill_shard));
        std::printf("tenant '%s': shard %lld %s after kill (probe EWMA "
                    "%.0fus)\n",
                    tenant_names[t].c_str(),
                    static_cast<long long>(kill_shard),
                    health == cluster::ShardHealth::kHealthy
                        ? "auto-recovered"
                        : cluster::ShardHealthToString(health),
                    supervisors[t]->probe_latency_us(
                        static_cast<size_t>(kill_shard)));
        if (health != cluster::ShardHealth::kHealthy) {
          error_count.fetch_add(1);
        }
      }
    }
    const int64_t stream_failures = finish_stream();
    error_count.fetch_add(stream_failures);
    registry.Shutdown();

    const auto collected = registry.Collect();
    std::printf("%s\n",
                obs::ToTable(collected, "multi-tenant metrics").c_str());
    if (!flags.GetString("metrics_json").empty()) {
      const Status appended =
          obs::AppendJsonLine(collected, flags.GetString("metrics_json"));
      if (!appended.ok()) {
        std::fprintf(stderr, "metrics export failed: %s\n",
                     appended.ToString().c_str());
      }
    }
    std::printf(
        "\nreplayed %lld requests across %zu tenant(s) from %lld client(s) "
        "in %.3fs — %.0f req/s (%lld ok, %lld rejected/error)\n",
        static_cast<long long>(total_requests), tenant_names.size(),
        static_cast<long long>(num_clients), seconds,
        static_cast<double>(total_requests) / seconds,
        static_cast<long long>(ok_count.load()),
        static_cast<long long>(error_count.load()));
    std::printf("serving tiers:");
    for (size_t t = 0; t < runtime::kNumServingTiers; ++t) {
      std::printf("  %s=%lld",
                  runtime::ServingTierToString(
                      static_cast<runtime::ServingTier>(t)),
                  static_cast<long long>(tiers[t].load()));
    }
    std::printf("\n");
    return error_count.load() > 0 && admission == "block" ? 1 : 0;
  }

  // --- runtime ---
  const bool chaos = flags.GetBool("chaos");
  runtime::RuntimeConfig runtime_config;
  runtime_config.num_workers =
      static_cast<size_t>(flags.GetInt64("workers"));
  runtime_config.enable_score_cache = flags.GetBool("score_cache");
  runtime_config.default_deadline_us = flags.GetInt64("deadline_us");
  runtime_config.prior = prior;
  runtime_config.batcher.max_batch_size =
      static_cast<size_t>(flags.GetInt64("max_batch"));
  runtime_config.batcher.max_delay_us = flags.GetInt64("max_delay_us");
  runtime_config.batcher.queue_capacity =
      static_cast<size_t>(flags.GetInt64("queue_capacity"));
  runtime_config.batcher.admission =
      admission == "block" ? runtime::AdmissionPolicy::kBlock
                           : runtime::AdmissionPolicy::kRejectWithStatus;
  if (chaos) {
    runtime_config.fault_injection.enabled = true;
    runtime_config.fault_injection.seed =
        static_cast<uint64_t>(flags.GetInt64("chaos_seed"));
    runtime_config.fault_injection.worker_delay_probability =
        flags.GetDouble("chaos_delay_p");
    runtime_config.fault_injection.worker_delay_us =
        flags.GetInt64("chaos_delay_us");
    runtime_config.fault_injection.batch_failure_probability =
        flags.GetDouble("chaos_batch_fail_p");
    runtime_config.fault_injection.enqueue_reject_probability =
        flags.GetDouble("chaos_reject_p");
  }
  auto runtime_or = runtime::InferenceRuntime::Create(runtime_config);
  if (!runtime_or.ok()) {
    std::fprintf(stderr, "invalid runtime configuration: %s\n",
                 runtime_or.status().ToString().c_str());
    return 2;
  }
  runtime::InferenceRuntime& runtime = **runtime_or;

  const auto published = runtime.Publish(snapshot);
  if (!published.ok()) {
    std::fprintf(stderr, "initial publish rejected: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }

  // Periodic JSON-lines export of the runtime's registry (runtime counters
  // and latency histograms, batcher queue depth). Recording stays lock-free
  // while the exporter reads.
  std::unique_ptr<obs::PeriodicJsonExporter> metrics_exporter;
  if (!flags.GetString("metrics_json").empty()) {
    metrics_exporter = std::make_unique<obs::PeriodicJsonExporter>(
        &runtime.metrics_registry(), flags.GetString("metrics_json"),
        flags.GetInt64("metrics_interval_ms"));
  }

  if (stream_train) {
    start_stream([&](runtime::ServingSnapshot fresh) {
      return runtime.Publish(std::move(fresh));
    });
    if (!stream_status.ok()) {
      std::fprintf(stderr, "stream trainer warm start failed: %s\n",
                   stream_status.ToString().c_str());
      return 1;
    }
  }

  std::atomic<bool> stop_swapping{false};
  std::atomic<int64_t> corrupt_attempts{0};
  std::atomic<int64_t> corrupt_accepted{0};
  std::thread swapper;
  if (flags.GetInt64("swap_every_ms") > 0) {
    swapper = std::thread([&] {
      // Under --chaos every other publish is armed to be corrupted in
      // flight; validation must reject it while the previous version keeps
      // serving.
      bool corrupt_next = chaos;
      while (!stop_swapping.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            flags.GetInt64("swap_every_ms")));
        if (corrupt_next) {
          runtime.fault_injector().ArmCorruptPublish();
          corrupt_attempts.fetch_add(1);
          if (runtime.Publish(snapshot).ok()) corrupt_accepted.fetch_add(1);
        } else {
          runtime.Publish(snapshot);
        }
        if (chaos) corrupt_next = !corrupt_next;
      }
    });
  }

  // --- replay from `clients` threads, each owning a slice ---
  Stopwatch timer;
  std::atomic<int64_t> ok_count{0};
  std::atomic<int64_t> error_count{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  for (int64_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<StatusOr<runtime::ScoreResult>>> futures;
      for (size_t i = static_cast<size_t>(c); i < stream.size();
           i += static_cast<size_t>(num_clients)) {
        futures.push_back(runtime.ScoreAsync(stream[i]));
      }
      for (auto& future : futures) {
        if (future.get().ok()) {
          ok_count.fetch_add(1);
        } else {
          error_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = timer.ElapsedSeconds();

  if (swapper.joinable()) {
    stop_swapping.store(true);
    swapper.join();
  }
  const int64_t stream_failures = finish_stream();
  error_count.fetch_add(stream_failures);

  if (chaos) {
    // Deterministic corrupt-publish drill (the swapper's attempts depend on
    // timing): arm, publish, expect rejection, then prove a clean publish
    // and a live score still work on the surviving version.
    runtime.fault_injector().ArmCorruptPublish();
    corrupt_attempts.fetch_add(1);
    const auto corrupt_publish = runtime.Publish(snapshot);
    if (corrupt_publish.ok()) {
      corrupt_accepted.fetch_add(1);
    } else {
      std::printf("corrupt publish rejected as expected: %s\n",
                  corrupt_publish.status().ToString().c_str());
    }
    if (!runtime.Publish(snapshot).ok() ||
        !runtime.Score(stream.front()).ok()) {
      std::fprintf(stderr,
                   "FAIL: serving did not survive the corrupt publish\n");
      error_count.fetch_add(1);
    }
  }
  runtime.Shutdown();
  if (metrics_exporter != nullptr) {
    metrics_exporter->Stop();  // writes the final end-state line
    if (!metrics_exporter->status().ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   metrics_exporter->status().ToString().c_str());
    } else {
      std::printf("metrics: %lld JSON line(s) -> %s\n",
                  static_cast<long long>(metrics_exporter->flushes()),
                  flags.GetString("metrics_json").c_str());
    }
  }

  const auto stats = runtime.stats();
  std::printf("%s\n", runtime::RuntimeStats::ToTable(stats).c_str());
  std::printf(
      "\nreplayed %lld requests from %lld client(s) in %.3fs — %.0f req/s "
      "(%lld ok, %lld rejected/error, %lld snapshot swaps)\n",
      static_cast<long long>(total_requests),
      static_cast<long long>(num_clients), seconds,
      static_cast<double>(total_requests) / seconds,
      static_cast<long long>(ok_count.load()),
      static_cast<long long>(error_count.load()),
      static_cast<long long>(stats.swaps));
  if (chaos) {
    const int64_t served = std::max<int64_t>(1, stats.completed_ok);
    std::printf(
        "chaos: %lld faults injected, %lld corrupt publishes attempted "
        "(%lld accepted, %lld rejected), %.2f%% of responses degraded\n",
        static_cast<long long>(stats.faults_injected),
        static_cast<long long>(corrupt_attempts.load()),
        static_cast<long long>(corrupt_accepted.load()),
        static_cast<long long>(stats.publish_rejected),
        100.0 * static_cast<double>(stats.degraded) /
            static_cast<double>(served));
    std::printf("serving tiers:");
    for (size_t t = 0; t < runtime::kNumServingTiers; ++t) {
      std::printf("  %s=%lld",
                  runtime::ServingTierToString(
                      static_cast<runtime::ServingTier>(t)),
                  static_cast<long long>(stats.tier_counts[t]));
    }
    std::printf("\n");
  }

  // --- final display: rank all arrivals (same O(1) path the runtime ran) ---
  const auto top_k = flags.GetInt64("top_k");
  std::printf("\ntop %lld new arrivals:\n", static_cast<long long>(top_k));
  int rank = 1;
  for (const auto& [item, score] : prior->TopK(top_k)) {
    std::printf("  #%3d item %lld  score %.4f\n", rank++,
                static_cast<long long>(item), score);
  }
  if (corrupt_accepted.load() > 0) {
    std::fprintf(stderr, "FAIL: a corrupt snapshot passed validation\n");
    return 1;
  }
  return error_count.load() > 0 && admission == "block" ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
