#include "cluster/sharded_runtime.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/schema.h"

namespace atnn::cluster {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// A probe needs a bound, or a hung shard would hang the prober.
constexpr int64_t kProbeDeadlineUs = 50'000;

// Share of a ScoreBatch budget given to the scatter leg; the rest is left
// for the merge.
constexpr double kFanoutBudgetFraction = 0.75;

}  // namespace

Status ShardedRuntimeConfig::Validate() const {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  ATNN_RETURN_IF_ERROR(shard.Validate());
  if (default_deadline_us < 0) {
    return Status::InvalidArgument("default_deadline_us must be >= 0");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardedRuntime>> ShardedRuntime::Create(
    const ShardedRuntimeConfig& config) {
  ATNN_RETURN_IF_ERROR(config.Validate());
  return std::make_unique<ShardedRuntime>(config);
}

ShardedRuntime::ShardedRuntime(const ShardedRuntimeConfig& config)
    : config_(config),
      requests_(frontend_.GetCounter("gather.requests")),
      shard_errors_(frontend_.GetCounter("gather.shard_errors")),
      gather_timeouts_(frontend_.GetCounter("gather.timeouts")),
      frontend_degraded_(frontend_.GetCounter("gather.degraded")),
      breaker_shed_(frontend_.GetCounter("gather.breaker_shed")),
      probes_(frontend_.GetCounter("gather.probes")),
      probe_failures_(frontend_.GetCounter("gather.probe_failures")),
      resizes_(frontend_.GetCounter("gather.resizes")),
      publish_rejected_(frontend_.GetCounter("gather.publish_rejected")),
      rebuilds_(frontend_.GetCounter("gather.rebuilds")),
      epoch_gauge_(frontend_.GetGauge("gather.epoch")),
      fanout_us_(frontend_.GetHistogram("gather.fanout_us")),
      merge_us_(frontend_.GetHistogram("gather.merge_us")) {
  const Status valid = config_.Validate();
  ATNN_CHECK(valid.ok()) << "invalid ShardedRuntimeConfig: "
                         << valid.ToString()
                         << " (use ShardedRuntime::Create for a Status)";
  auto epoch = std::make_shared<Epoch>(ShardRing(config_.num_shards));
  epoch->shards.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    epoch->shards.push_back(
        ShardSlot{MakeShardRuntime(), std::make_shared<CircuitBreaker>()});
  }
  epoch_ = std::move(epoch);
  epoch_gauge_.Set(1.0);
}

ShardedRuntime::~ShardedRuntime() { Shutdown(); }

std::shared_ptr<const ShardedRuntime::Epoch> ShardedRuntime::CurrentEpoch()
    const {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  return epoch_;
}

void ShardedRuntime::SwapEpochAndDrain(std::shared_ptr<const Epoch> epoch) {
  epoch_gauge_.Set(static_cast<double>(epoch->id));
  std::shared_ptr<const Epoch> old;
  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    old = std::move(epoch_);
    epoch_ = std::move(epoch);
  }
  // Drain: every in-flight request took one reference on the old epoch at
  // scatter time and holds it through its gather, so once we are the last
  // owner no request can still be routing with the old table or talking to
  // a runtime absent from the new epoch. Gather waits are deadline-bounded,
  // which bounds this loop too.
  while (old.use_count() > 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::shared_ptr<runtime::InferenceRuntime> ShardedRuntime::MakeShardRuntime()
    const {
  runtime::RuntimeConfig shard_config = config_.shard;
  shard_config.prior = nullptr;  // installed per shard at publish time
  return std::make_shared<runtime::InferenceRuntime>(shard_config);
}

std::shared_ptr<const ShardedRuntime::RoutingTable>
ShardedRuntime::CompactRouting(const ShardRing& ring, int64_t num_rows) {
  auto routing = std::make_shared<RoutingTable>();
  routing->shard_of_row.resize(static_cast<size_t>(num_rows));
  routing->local_of_row.resize(static_cast<size_t>(num_rows));
  routing->rows_of_shard.resize(ring.num_shards());
  for (int64_t row = 0; row < num_rows; ++row) {
    const size_t shard = ring.ShardFor(row);
    auto& members = routing->rows_of_shard[shard];
    routing->shard_of_row[static_cast<size_t>(row)] =
        static_cast<uint32_t>(shard);
    routing->local_of_row[static_cast<size_t>(row)] =
        static_cast<int64_t>(members.size());
    members.push_back(row);
  }
  routing->compact = true;
  return routing;
}

std::shared_ptr<const serving::PopularityIndex> ShardedRuntime::RekeyPrior(
    const std::vector<int64_t>& members) const {
  if (config_.prior == nullptr) return nullptr;
  // Shards score by local row, so their tier-2 prior must be re-keyed from
  // the global index.
  auto local_prior = std::make_shared<serving::PopularityIndex>();
  for (size_t local = 0; local < members.size(); ++local) {
    const auto score = config_.prior->Score(members[local]);
    if (score.ok()) {
      local_prior->Upsert(static_cast<int64_t>(local), score.value());
    }
  }
  return local_prior;
}

StatusOr<uint64_t> ShardedRuntime::PublishSlices(
    const runtime::ServingSnapshot& full, const std::vector<ShardSlice>& slices,
    const std::vector<runtime::InferenceRuntime*>& targets) {
  std::vector<runtime::CheckedSnapshot> checked;
  for (size_t s = 0; s < targets.size(); ++s) {
    if (targets[s] == nullptr) continue;
    runtime::ServingSnapshot slice = full;
    slice.item_profiles = slices[s].item_profiles;
    slice.tag = full.tag + "/shard" + std::to_string(s);
    ATNN_ASSIGN_OR_RETURN(runtime::CheckedSnapshot shard_checked,
                          targets[s]->CheckPublish(std::move(slice)));
    checked.push_back(std::move(shard_checked));
  }
  uint64_t version = 0;
  auto next_checked = checked.begin();
  for (size_t s = 0; s < targets.size(); ++s) {
    if (targets[s] == nullptr) continue;
    // Fresh instances restart their version counter at 1 while kept
    // shards keep counting; the front-end reports the highest.
    version = std::max(version,
                       targets[s]->CommitPublish(std::move(*next_checked++)));
    targets[s]->SetPrior(slices[s].prior);
  }
  return version;
}

StatusOr<uint64_t> ShardedRuntime::PublishSharded(
    const runtime::ServingSnapshot& full) {
  // One up-front validation and plan compile over the whole snapshot: a
  // corrupt model or a failed compile is rejected before any shard swaps.
  // The plan closes over the model, not the item table, so every slice
  // shares this one compile and the shard runtimes skip their own.
  runtime::ServingSnapshot shared = full;
  Status valid = runtime::ValidateServingSnapshot(shared);
  if (valid.ok()) {
    valid = runtime::AttachServingPlan(
        static_cast<int64_t>(config_.shard.batcher.max_batch_size), &shared);
  }
  if (!valid.ok()) {
    publish_rejected_.Increment();
    return valid;
  }
  const int64_t num_rows = shared.item_profiles->num_rows();

  std::lock_guard<std::mutex> admin(admin_mutex_);
  std::shared_ptr<const Epoch> current = CurrentEpoch();
  const size_t num_shards = current->shards.size();

  // A compact table depends only on the ring and the row count, and so
  // does each shard's re-keyed prior (the cluster prior is fixed at
  // construction): the common republish reuses both. Slices are cut from
  // the item table, so they carry over only for the very table object
  // last published — immutable once published, and kept alive by
  // last_full_, so its address cannot name another table.
  const bool reuse_routing =
      current->routing != nullptr && current->routing->compact &&
      current->routing->shard_of_row.size() == static_cast<size_t>(num_rows);
  const bool reuse_slices =
      reuse_routing && shared.item_profiles == last_full_->item_profiles;
  std::shared_ptr<const RoutingTable> routing =
      reuse_routing ? current->routing
                    : CompactRouting(current->ring, num_rows);
  std::vector<ShardSlice> slices =
      reuse_routing ? slices_ : std::vector<ShardSlice>(num_shards);
  if (!reuse_slices) {
    for (size_t s = 0; s < num_shards; ++s) {
      const std::vector<int64_t>& members = routing->rows_of_shard[s];
      slices[s].item_profiles = std::make_shared<const data::EntityTable>(
          data::SliceRows(*shared.item_profiles, members));
      if (!reuse_routing) slices[s].prior = RekeyPrior(members);
    }
  }

  // A shard whose member list changed (e.g. the first publish after a
  // grow-resize compacts the slices, or the catalog shrank) is republished
  // onto a fresh runtime instance behind an epoch swap: in-flight requests
  // hold local indices minted for the OLD slices, and the old instances
  // keep serving them until the drain completes. Every other shard swaps
  // its slice in place.
  auto next = std::make_shared<Epoch>(*current);
  std::vector<std::shared_ptr<runtime::InferenceRuntime>> replaced;
  std::vector<runtime::InferenceRuntime*> targets(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (current->routing != nullptr && routing != current->routing &&
        current->routing->rows_of_shard[s] != routing->rows_of_shard[s]) {
      replaced.push_back(next->shards[s].runtime);
      next->shards[s].runtime = MakeShardRuntime();
    }
    targets[s] = next->shards[s].runtime.get();
  }
  uint64_t version = 0;
  ATNN_ASSIGN_OR_RETURN(version, PublishSlices(shared, slices, targets));
  if (routing != current->routing) {
    // Installing the first routing table, or an identical layout marked
    // compact, keeps the epoch id; replacing runtimes advances it.
    if (!replaced.empty()) next->id = current->id + 1;
    next->routing = std::move(routing);
    current.reset();  // the drain waits for our reference too
    SwapEpochAndDrain(std::move(next));
    for (auto& old_runtime : replaced) {
      old_runtime->Shutdown();
      retired_.push_back(std::move(old_runtime));
    }
  }

  // Rebuild/resize republish from this snapshot; keeping the plan attached
  // means a shard rebuild never re-traces either.
  last_full_ = std::move(shared);
  slices_ = std::move(slices);
  published_version_.store(version, std::memory_order_relaxed);
  return version;
}

StatusOr<ResizeReport> ShardedRuntime::ResizeShards(size_t new_num_shards) {
  if (new_num_shards < 1) {
    return Status::InvalidArgument("new_num_shards must be >= 1");
  }
  std::lock_guard<std::mutex> admin(admin_mutex_);
  std::shared_ptr<const Epoch> current = CurrentEpoch();
  if (current->routing == nullptr || !last_full_.has_value()) {
    return Status::FailedPrecondition(
        "ResizeShards needs a published catalog to re-slice; call "
        "PublishSharded() first");
  }
  const size_t old_n = current->shards.size();
  ResizeReport report;
  report.from_shards = old_n;
  report.to_shards = new_num_shards;
  report.total_rows =
      static_cast<int64_t>(current->routing->shard_of_row.size());
  if (new_num_shards == old_n) {
    report.epoch = current->id;
    return report;
  }
  const bool growing = new_num_shards > old_n;

  const ShardRing new_ring(new_num_shards);

  // Prefix-stable routing: a row that stays on its shard keeps its OLD
  // local index, so requests in flight across the swap keep resolving
  // against the slice they were routed for. Moved rows either land on a
  // brand-new shard (grow: fresh compact slice) or are APPENDED to a
  // survivor's existing slice (shrink: old locals stay a valid prefix).
  auto routing = std::make_shared<RoutingTable>();
  const size_t num_rows = current->routing->shard_of_row.size();
  routing->shard_of_row.resize(num_rows);
  routing->local_of_row.resize(num_rows);
  routing->rows_of_shard.resize(new_num_shards);
  // Survivors start from their old slice layout verbatim — including rows
  // that route away from them after the resize. A stale slice row is
  // harmless (nothing routes to it); dropping it would renumber the slice
  // and break every in-flight local index.
  const size_t surviving = std::min(old_n, new_num_shards);
  for (size_t s = 0; s < surviving; ++s) {
    routing->rows_of_shard[s] = current->routing->rows_of_shard[s];
  }
  // gained[s]: rows newly routed to surviving shard s (appended below);
  // only nonempty when shrinking (or under a ring bound violation).
  std::vector<std::vector<int64_t>> gained(new_num_shards);
  for (size_t row = 0; row < num_rows; ++row) {
    const size_t old_shard = current->routing->shard_of_row[row];
    const size_t new_shard = new_ring.ShardFor(static_cast<int64_t>(row));
    if (new_shard == old_shard) {
      routing->shard_of_row[row] = static_cast<uint32_t>(old_shard);
      routing->local_of_row[row] = current->routing->local_of_row[row];
      continue;
    }
    ++report.moved_rows;
    // The ring's bounded-remap guarantee, checked over the real catalog:
    // on grow a row may only move TO an added shard, on shrink only FROM
    // a removed shard.
    if (growing ? new_shard < old_n : old_shard < new_num_shards) {
      report.moved_only_within_bound = false;
    }
    routing->shard_of_row[row] = static_cast<uint32_t>(new_shard);
    if (new_shard >= old_n) {
      // Added shard: compact fresh slice.
      auto& members = routing->rows_of_shard[new_shard];
      routing->local_of_row[row] = static_cast<int64_t>(members.size());
      members.push_back(static_cast<int64_t>(row));
    } else {
      // Survivor gains a row: appended past its old slice prefix.
      auto& members = routing->rows_of_shard[new_shard];
      routing->local_of_row[row] = static_cast<int64_t>(members.size());
      members.push_back(static_cast<int64_t>(row));
      gained[new_shard].push_back(static_cast<int64_t>(row));
    }
  }

  auto next = std::make_shared<Epoch>(new_ring);
  next->id = current->id + 1;
  next->shards.reserve(new_num_shards);
  for (size_t s = 0; s < surviving; ++s) {
    next->shards.push_back(current->shards[s]);
  }
  for (size_t s = old_n; s < new_num_shards; ++s) {
    next->shards.push_back(
        ShardSlot{MakeShardRuntime(), std::make_shared<CircuitBreaker>()});
  }

  // Publish every new or extended slice BEFORE the routing swap: the first
  // request routed by the new table must find its rows already serving.
  std::vector<ShardSlice> slices(new_num_shards);
  std::vector<runtime::InferenceRuntime*> targets(new_num_shards, nullptr);
  for (size_t s = 0; s < new_num_shards; ++s) {
    const bool is_new = s >= old_n;
    if (!is_new && gained[s].empty()) {
      slices[s] = slices_[s];  // slice untouched
      continue;
    }
    const std::vector<int64_t>& members = routing->rows_of_shard[s];
    slices[s].item_profiles = std::make_shared<const data::EntityTable>(
        data::SliceRows(*last_full_->item_profiles, members));
    slices[s].prior = RekeyPrior(members);
    targets[s] = next->shards[s].runtime.get();
  }
  ATNN_RETURN_IF_ERROR(PublishSlices(*last_full_, slices, targets).status());

  next->routing = std::move(routing);
  slices_ = std::move(slices);
  report.epoch = next->id;
  std::vector<std::shared_ptr<runtime::InferenceRuntime>> removed;
  for (size_t s = new_num_shards; s < old_n; ++s) {
    removed.push_back(current->shards[s].runtime);
  }
  current.reset();  // the drain waits for our reference too
  SwapEpochAndDrain(std::move(next));

  // Removed shards stopped receiving traffic at the swap and their last
  // in-flight requests completed during the drain: now they can die.
  for (auto& runtime : removed) {
    runtime->Shutdown();
    retired_.push_back(std::move(runtime));
  }

  resizes_.Increment();
  return report;
}

Status ShardedRuntime::RebuildShard(size_t shard) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  std::shared_ptr<const Epoch> current = CurrentEpoch();
  if (shard >= current->shards.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (current->routing == nullptr || !last_full_.has_value()) {
    return Status::FailedPrecondition(
        "RebuildShard needs a published catalog to re-slice; call "
        "PublishSharded() first");
  }

  auto fresh = MakeShardRuntime();
  std::vector<runtime::InferenceRuntime*> targets(slices_.size(), nullptr);
  targets[shard] = fresh.get();
  ATNN_RETURN_IF_ERROR(PublishSlices(*last_full_, slices_, targets).status());

  // Trip the breaker BEFORE the rebuilt runtime becomes routable: the
  // shard re-enters service only after probes walk half-open -> closed,
  // never by the swap alone.
  current->shards[shard].breaker->ForceOpen();

  auto next = std::make_shared<Epoch>(*current);
  next->id = current->id + 1;
  next->shards[shard].runtime = std::move(fresh);
  auto replaced = current->shards[shard].runtime;
  current.reset();  // the drain waits for our reference too
  SwapEpochAndDrain(std::move(next));

  replaced->Shutdown();
  retired_.push_back(std::move(replaced));
  rebuilds_.Increment();
  return Status::OK();
}

ProbeReport ShardedRuntime::ProbeShard(size_t shard, uint64_t salt) {
  ProbeReport report;
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  if (shard >= epoch->shards.size()) {
    report.status = Status::InvalidArgument("shard index out of range");
    return report;
  }
  probes_.Increment();
  if (epoch->routing == nullptr ||
      epoch->routing->rows_of_shard[shard].empty()) {
    // Nothing published to this shard: vacuously healthy, and there is no
    // row to probe with anyway. Does not feed the breaker.
    report.status = Status::OK();
    return report;
  }
  const size_t slice_rows = epoch->routing->rows_of_shard[shard].size();
  // Deterministic row choice, fanned across the slice by the salt so a
  // probing supervisor exercises different rows each round.
  const int64_t local =
      static_cast<int64_t>(SplitMix64(salt) % slice_rows);

  const Clock::time_point start = Clock::now();
  StatusOr<runtime::ScoreResult> result =
      epoch->shards[shard].runtime->Probe(local, kProbeDeadlineUs);
  report.latency_us = MicrosSince(start);
  report.status = result.status();
  if (result.ok()) report.tier = result.value().tier;

  // Probe traffic drives the breaker: failures (and degraded-only
  // answers) push toward open, fresh answers walk half-open -> closed.
  epoch->shards[shard].breaker->RecordProbe(report.healthy());
  if (!report.healthy()) probe_failures_.Increment();
  return report;
}

runtime::ScoreResult ShardedRuntime::FrontendDegraded(int64_t global_row) {
  frontend_degraded_.Increment();
  runtime::ScoreResult result;
  result.snapshot_version =
      published_version_.load(std::memory_order_relaxed);
  if (config_.prior != nullptr) {
    const auto prior_score = config_.prior->Score(global_row);
    if (prior_score.ok()) {
      result.score = prior_score.value();
      result.tier = runtime::ServingTier::kPrior;
      return result;
    }
  }
  // No prior coverage: the sigmoid midpoint, the same answer of last
  // resort a single runtime gives before any fresh score exists.
  result.score = 0.5;
  result.tier = runtime::ServingTier::kGlobalMean;
  return result;
}

std::vector<StatusOr<runtime::ScoreResult>> ShardedRuntime::ScoreBatch(
    const std::vector<int64_t>& item_rows) {
  return ScoreBatch(item_rows, config_.default_deadline_us);
}

std::vector<StatusOr<runtime::ScoreResult>> ShardedRuntime::ScoreBatch(
    const std::vector<int64_t>& item_rows, int64_t deadline_us) {
  std::vector<StatusOr<runtime::ScoreResult>> results;
  results.reserve(item_rows.size());
  // This reference is the drain token: admin operations wait for it before
  // shutting down any runtime this batch might be talking to.
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  if (epoch->routing == nullptr) {
    for (size_t i = 0; i < item_rows.size(); ++i) {
      results.emplace_back(Status::FailedPrecondition(
          "no sharded snapshot published; call PublishSharded() first"));
    }
    return results;
  }
  const RoutingTable& table = *epoch->routing;
  requests_.Increment(static_cast<int64_t>(item_rows.size()));

  const Clock::time_point start = Clock::now();
  const Clock::time_point overall_deadline =
      deadline_us > 0 ? start + std::chrono::microseconds(deadline_us)
                      : Clock::time_point::max();
  // Deadline split: each shard burst gets this budget from the moment it
  // is handed over; the overall deadline bounds the merge wait below.
  const int64_t fanout_deadline_us =
      deadline_us > 0
          ? std::max<int64_t>(
                1, static_cast<int64_t>(
                       static_cast<double>(deadline_us) *
                       kFanoutBudgetFraction))
          : 0;

  // --- scatter ---
  // Route every row first, then hand each shard its rows as one burst:
  // one admission under the shard's batcher mutex and one shared
  // completion. A burst flushes at its end, so a sub-batch tail that
  // does not fill max_batch_size never waits out the batch window.
  const int64_t num_rows = static_cast<int64_t>(table.shard_of_row.size());
  const size_t num_shards = epoch->shards.size();
  std::vector<std::vector<int64_t>> locals(num_shards);   // burst rows
  std::vector<std::vector<size_t>> indices(num_shards);  // result slots
  for (size_t i = 0; i < item_rows.size(); ++i) {
    const int64_t row = item_rows[i];
    if (row < 0 || row >= num_rows) {
      results.emplace_back(Status::InvalidArgument(
          "item row " + std::to_string(row) + " outside catalog [0, " +
          std::to_string(num_rows) + ")"));
      continue;
    }
    const size_t shard = table.shard_of_row[static_cast<size_t>(row)];
    locals[shard].push_back(table.local_of_row[static_cast<size_t>(row)]);
    indices[shard].push_back(i);
    results.emplace_back(runtime::ScoreResult{});  // merged below
  }
  std::vector<std::shared_ptr<runtime::BurstCompletion>> bursts(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (locals[s].empty()) continue;
    if (!epoch->shards[s].breaker->AllowRequest()) {
      // Open/half-open breaker: shed the whole burst to the front-end
      // fallback before spending any deadline budget on a sick shard.
      // Only probe traffic can re-admit it.
      breaker_shed_.Increment(static_cast<int64_t>(locals[s].size()));
      for (const size_t index : indices[s]) {
        results[index] = FrontendDegraded(item_rows[index]);
      }
      continue;
    }
    bursts[s] = epoch->shards[s].runtime->ScoreBurst(locals[s],
                                                     fanout_deadline_us);
  }
  fanout_us_.Record(MicrosSince(start));

  // --- gather ---
  // One wait per shard, bounded by the whole-request budget, then every
  // row's outcome in burst order. A straggler past the budget is
  // abandoned: the shard still answers it, into the burst it co-owns,
  // and the merge never holds the batch hostage to one shard. Each shard's
  // outcomes feed its breaker once, in slot order.
  const Clock::time_point merge_start = Clock::now();
  std::vector<char> outcomes;  // per burst slot: 1 = the shard answered OK
  for (size_t s = 0; s < num_shards; ++s) {
    if (bursts[s] == nullptr) continue;  // answered at scatter time
    bursts[s]->WaitUntil(overall_deadline);
    outcomes.assign(indices[s].size(), 0);
    int64_t timeouts = 0;
    int64_t errors = 0;
    bursts[s]->TakeAll([&](size_t slot,
                           StatusOr<runtime::ScoreResult>* answer) {
      const size_t index = indices[s][slot];
      if (answer == nullptr) {
        ++timeouts;
        results[index] = FrontendDegraded(item_rows[index]);
      } else if (answer->ok()) {
        // Degraded-tier answers still count as successes here: the shard
        // is alive and inside its budget, just not fresh — the
        // supervisor's probes, not the breaker, handle staleness.
        outcomes[slot] = 1;
        results[index] = std::move(*answer);
      } else {
        // A down shard (FailedPrecondition after ShutDownShard): degrade
        // at the front-end instead of surfacing a partial-failure error.
        ++errors;
        results[index] = FrontendDegraded(item_rows[index]);
      }
    });
    epoch->shards[s].breaker->RecordResults(outcomes);
    if (timeouts > 0) gather_timeouts_.Increment(timeouts);
    if (errors > 0) shard_errors_.Increment(errors);
  }
  merge_us_.Record(MicrosSince(merge_start));
  return results;
}

StatusOr<runtime::ScoreResult> ShardedRuntime::Score(int64_t item_row) {
  return std::move(ScoreBatch({item_row}).front());
}

std::vector<StatusOr<runtime::ScoreResult>> ShardedRuntime::DegradedBatch(
    const std::vector<int64_t>& item_rows) {
  std::vector<StatusOr<runtime::ScoreResult>> results;
  results.reserve(item_rows.size());
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  // Before the first publish there is no catalog to bound-check against;
  // a shed must not depend on serving state, so every row just gets the
  // fallback answer.
  const int64_t num_rows =
      epoch->routing == nullptr
          ? -1
          : static_cast<int64_t>(epoch->routing->shard_of_row.size());
  requests_.Increment(static_cast<int64_t>(item_rows.size()));
  for (const int64_t row : item_rows) {
    if (num_rows >= 0 && (row < 0 || row >= num_rows)) {
      results.emplace_back(Status::InvalidArgument(
          "item row " + std::to_string(row) + " outside catalog [0, " +
          std::to_string(num_rows) + ")"));
      continue;
    }
    results.emplace_back(FrontendDegraded(row));
  }
  return results;
}

void ShardedRuntime::ShutDownShard(size_t shard) {
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  ATNN_CHECK(shard < epoch->shards.size());
  epoch->shards[shard].runtime->Shutdown();
}

void ShardedRuntime::Shutdown() {
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  for (const auto& slot : epoch->shards) slot.runtime->Shutdown();
}

ShardRing ShardedRuntime::ring() const { return CurrentEpoch()->ring; }

runtime::InferenceRuntime& ShardedRuntime::shard(size_t i) {
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  ATNN_CHECK(i < epoch->shards.size());
  return *epoch->shards[i].runtime;
}

const runtime::InferenceRuntime& ShardedRuntime::shard(size_t i) const {
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  ATNN_CHECK(i < epoch->shards.size());
  return *epoch->shards[i].runtime;
}

CircuitBreaker& ShardedRuntime::breaker(size_t i) {
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  ATNN_CHECK(i < epoch->shards.size());
  return *epoch->shards[i].breaker;
}

obs::MetricsSnapshot ShardedRuntime::Collect() const {
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  obs::MetricsSnapshot merged = frontend_.Collect();
  for (size_t i = 0; i < epoch->shards.size(); ++i) {
    const std::string prefix = "shard" + std::to_string(i) + ".";
    obs::MergeWithPrefix(
        prefix, epoch->shards[i].runtime->metrics_registry().Collect(),
        &merged);
  }
  obs::SortByName(&merged);
  return merged;
}

}  // namespace atnn::cluster
