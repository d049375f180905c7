#include "stream/streaming_trainer.h"

#include <chrono>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/parameter.h"

namespace atnn::stream {

namespace {

using Clock = std::chrono::steady_clock;

/// Capacity (in batches) of the owned cross-batch negative cache.
constexpr size_t kNegativeCacheBatches = 4;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// AUC needs at least one click and one non-click; tiny cohorts can miss.
bool HasBothClasses(const std::vector<float>& labels) {
  bool pos = false;
  bool neg = false;
  for (float label : labels) {
    if (label > 0.5f) {
      pos = true;
    } else {
      neg = true;
    }
    if (pos && neg) return true;
  }
  return false;
}

}  // namespace

StreamingTrainer::StreamingTrainer(const data::TmallDataset& dataset,
                                   StreamingTrainerConfig config,
                                   PublishFn publish)
    : dataset_(dataset),
      config_(std::move(config)),
      publish_(std::move(publish)),
      negative_cache_(kNegativeCacheBatches) {
  ATNN_CHECK(publish_ != nullptr) << "StreamingTrainer needs a PublishFn";
  ATNN_CHECK(config_.active_user_group > 0);
  ATNN_CHECK(config_.replay_interactions >= 0);
  model_ = std::make_unique<core::AtnnModel>(
      *dataset_.user_schema, *dataset_.item_profile_schema,
      *dataset_.item_stats_schema, config_.model);
  // One shared profile table for every snapshot this trainer publishes
  // (the table is immutable; only the interaction log grows day to day).
  item_profiles_ =
      std::make_shared<data::EntityTable>(dataset_.item_profiles);
  user_group_ = core::SelectActiveUsers(dataset_, config_.active_user_group);
  if (config_.train.negative_cache == nullptr) {
    config_.train.negative_cache = &negative_cache_;
  }
  if (config_.train.metrics == nullptr) {
    config_.train.metrics = &registry_;
  }
}

Status StreamingTrainer::WarmStartFrom(
    const core::AtnnModel& snapshot_model) {
  // CollectParameters has no const overload; this only reads src values.
  auto& src_model = const_cast<core::AtnnModel&>(snapshot_model);
  return nn::CopyParameterValues(src_model.Parameters(),
                                 model_->Parameters());
}

runtime::ServingSnapshot StreamingTrainer::MakeSnapshot(
    const std::string& tag) {
  auto model_copy = std::make_unique<core::AtnnModel>(*model_);
  auto predictor = std::make_shared<core::PopularityPredictor>(
      core::PopularityPredictor::Build(*model_copy, dataset_, user_group_,
                                       /*batch_size=*/1024));
  runtime::ServingSnapshot snapshot;
  snapshot.model = std::shared_ptr<const core::AtnnModel>(
      std::move(model_copy));
  snapshot.predictor = std::move(predictor);
  snapshot.item_profiles = item_profiles_;
  snapshot.tag = tag;
  return snapshot;
}

StatusOr<DayReport> StreamingTrainer::Step(sim::ArrivalStream* arrivals) {
  ATNN_CHECK(arrivals != nullptr);
  ATNN_RETURN_IF_ERROR(config_.train.Validate());

  const sim::DayArrivals day = arrivals->Next();
  DayReport report;
  report.day = day.day;
  report.cohort_items = static_cast<int64_t>(day.cohort_items.size());
  report.feedback_rows = static_cast<int64_t>(day.feedback_users.size());

  // Append the day's feedback to the owned interaction log; the new rows
  // are the cohort's evaluation and training set, and tomorrow's history.
  const int64_t first_row =
      static_cast<int64_t>(dataset_.interaction_user.size());
  dataset_.interaction_user.insert(dataset_.interaction_user.end(),
                                   day.feedback_users.begin(),
                                   day.feedback_users.end());
  dataset_.interaction_item.insert(dataset_.interaction_item.end(),
                                   day.feedback_items.begin(),
                                   day.feedback_items.end());
  dataset_.labels.insert(dataset_.labels.end(), day.feedback_labels.begin(),
                         day.feedback_labels.end());
  std::vector<int64_t> cohort_rows(
      static_cast<size_t>(report.feedback_rows));
  std::iota(cohort_rows.begin(), cohort_rows.end(), first_row);

  // Staleness, before any update: what the currently-served weights (last
  // publish) make of the newest cohort. New arrivals have no statistics,
  // so both evals run the generator (cold-start) path.
  report.auc_valid =
      !cohort_rows.empty() && HasBothClasses(day.feedback_labels);
  if (report.auc_valid) {
    report.served_auc = core::EvaluateAtnnAuc(
        *model_, dataset_, cohort_rows, core::CtrPath::kGenerator,
        /*batch_size=*/1024);
  }

  // Day training set: cohort feedback first, then anti-forgetting replay
  // samples from the original train split.
  report.train_indices = cohort_rows;
  if (config_.replay_interactions > 0 && !dataset_.train_indices.empty()) {
    Rng replay_rng(HashCombine(DaySeed(config_.train.seed, day.day),
                               /*'replay'*/ 0x7265706c6179ULL));
    for (int64_t i = 0; i < config_.replay_interactions; ++i) {
      report.train_indices.push_back(
          dataset_.train_indices[replay_rng.UniformInt(
              static_cast<uint64_t>(dataset_.train_indices.size()))]);
    }
  }

  core::TrainOptions day_options = config_.train;
  day_options.seed = DaySeed(config_.train.seed, day.day);
  const auto train_start = Clock::now();
  if (!report.train_indices.empty()) {
    report.history = core::TrainAtnnOnIndices(
        model_.get(), dataset_, report.train_indices, day_options);
  }
  report.train_ms = MsSince(train_start);

  if (report.auc_valid) {
    report.fresh_auc = core::EvaluateAtnnAuc(
        *model_, dataset_, cohort_rows, core::CtrPath::kGenerator,
        /*batch_size=*/1024);
    report.staleness_gap = report.fresh_auc - report.served_auc;
  }

  const auto publish_start = Clock::now();
  StatusOr<uint64_t> published =
      publish_(MakeSnapshot(config_.tag + "-day" + std::to_string(day.day)));
  report.publish_ms = MsSince(publish_start);
  if (published.ok()) {
    report.published = true;
    report.published_version = published.value();
  } else {
    ATNN_LOG(Warning) << "stream day " << day.day
                      << ": publish rejected: "
                      << published.status().ToString();
  }

  registry_.GetCounter("stream.days").Increment();
  registry_.GetCounter("stream.cohort_items")
      .Increment(report.cohort_items);
  registry_.GetCounter("stream.feedback_rows")
      .Increment(report.feedback_rows);
  registry_.GetHistogram("stream.publish_latency_us")
      .Record(report.publish_ms * 1000.0);
  if (report.published) {
    registry_.GetCounter("stream.publishes").Increment();
    registry_.GetGauge("stream.last_published_version")
        .Set(static_cast<double>(report.published_version));
  } else {
    registry_.GetCounter("stream.publish_failures").Increment();
  }
  if (report.auc_valid) {
    registry_.GetGauge("stream.staleness_auc_gap")
        .Set(report.staleness_gap);
    registry_.GetGauge("stream.served_auc").Set(report.served_auc);
    registry_.GetGauge("stream.fresh_auc").Set(report.fresh_auc);
  } else {
    registry_.GetCounter("stream.invalid_auc_days").Increment();
  }
  return report;
}

StatusOr<std::vector<DayReport>> StreamingTrainer::Run(
    sim::ArrivalStream* arrivals) {
  std::vector<DayReport> reports;
  while (!arrivals->Done()) {
    ATNN_ASSIGN_OR_RETURN(DayReport report, Step(arrivals));
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace atnn::stream
