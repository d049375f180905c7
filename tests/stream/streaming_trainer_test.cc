// StreamingTrainer: the incremental train-to-serve loop. The two contracts
// under test are determinism (same seed + same stream => bitwise-identical
// published snapshots, and with the streaming switches off the per-day
// loss history is exactly the batch trainer's) and resilience (publish
// rejection is recorded, never fatal).

#include "stream/streaming_trainer.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/feature_adapter.h"
#include "core/popularity.h"
#include "core/trainer.h"
#include "data/tmall.h"
#include "nn/parameter.h"
#include "runtime/inference_runtime.h"
#include "sim/arrival_stream.h"

namespace atnn::stream {
namespace {

data::TmallDataset MakeTinyWorld() {
  data::TmallConfig config;
  config.num_users = 150;
  config.num_items = 240;
  config.num_new_items = 60;
  config.num_interactions = 5000;
  config.seed = 20240601;
  data::TmallDataset dataset = data::GenerateTmallDataset(config);
  core::NormalizeTmallInPlace(&dataset);
  return dataset;
}

StreamingTrainerConfig TinyTrainerConfig() {
  StreamingTrainerConfig config;
  config.model.tower.kind = nn::TowerKind::kDeepCross;
  config.model.tower.deep_dims = {32, 16};
  config.model.tower.cross_layers = 2;
  config.model.tower.output_dim = 12;
  config.model.seed = 5;
  config.train.epochs = 1;
  config.train.batch_size = 64;
  config.train.learning_rate = 1e-3f;
  config.train.seed = 99;
  config.active_user_group = 50;
  return config;
}

sim::ArrivalStreamConfig TinyStreamConfig() {
  sim::ArrivalStreamConfig config;
  config.num_days = 3;
  config.feedback_per_item = 20;
  config.seed = 2026;
  return config;
}

/// Captures every published snapshot (they are deep copies, so holding
/// them past the trainer's next Step is safe).
struct CapturingPublisher {
  std::vector<runtime::ServingSnapshot> snapshots;
  uint64_t next_version = 0;
  PublishFn Fn() {
    return [this](runtime::ServingSnapshot snapshot) -> StatusOr<uint64_t> {
      snapshots.push_back(std::move(snapshot));
      return ++next_version;
    };
  }
};

bool ModelsBitwiseEqual(const core::AtnnModel& a, const core::AtnnModel& b) {
  auto& mutable_a = const_cast<core::AtnnModel&>(a);
  auto& mutable_b = const_cast<core::AtnnModel&>(b);
  const auto params_a = mutable_a.Parameters();
  const auto params_b = mutable_b.Parameters();
  if (params_a.size() != params_b.size()) return false;
  for (size_t i = 0; i < params_a.size(); ++i) {
    const nn::Tensor& ta = params_a[i]->value();
    const nn::Tensor& tb = params_b[i]->value();
    if (ta.rows() != tb.rows() || ta.cols() != tb.cols()) return false;
    if (std::memcmp(ta.row_ptr(0), tb.row_ptr(0),
                    static_cast<size_t>(ta.numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(StreamingTrainerTest, SameSeedRunsPublishBitwiseIdenticalSnapshots) {
  const data::TmallDataset dataset = MakeTinyWorld();
  CapturingPublisher first;
  CapturingPublisher second;
  StreamingTrainer trainer_a(dataset, TinyTrainerConfig(), first.Fn());
  StreamingTrainer trainer_b(dataset, TinyTrainerConfig(), second.Fn());
  sim::ArrivalStream stream_a(&dataset, TinyStreamConfig());
  sim::ArrivalStream stream_b(&dataset, TinyStreamConfig());
  const auto reports_a = trainer_a.Run(&stream_a);
  const auto reports_b = trainer_b.Run(&stream_b);
  ASSERT_TRUE(reports_a.ok());
  ASSERT_TRUE(reports_b.ok());
  ASSERT_EQ(first.snapshots.size(), 3u);
  ASSERT_EQ(second.snapshots.size(), 3u);
  for (size_t day = 0; day < first.snapshots.size(); ++day) {
    EXPECT_TRUE(ModelsBitwiseEqual(*first.snapshots[day].model,
                                   *second.snapshots[day].model))
        << "published weights diverged on day " << day;
  }
  // And the scalar reports agree exactly too.
  for (size_t day = 0; day < reports_a->size(); ++day) {
    EXPECT_EQ((*reports_a)[day].served_auc, (*reports_b)[day].served_auc);
    EXPECT_EQ((*reports_a)[day].fresh_auc, (*reports_b)[day].fresh_auc);
    EXPECT_EQ((*reports_a)[day].train_indices,
              (*reports_b)[day].train_indices);
  }
}

TEST(StreamingTrainerTest, PublishedSnapshotDoesNotAliasTheTrainingModel) {
  const data::TmallDataset dataset = MakeTinyWorld();
  CapturingPublisher publisher;
  StreamingTrainer trainer(dataset, TinyTrainerConfig(), publisher.Fn());
  sim::ArrivalStream stream(&dataset, TinyStreamConfig());
  ASSERT_TRUE(trainer.Step(&stream).ok());
  ASSERT_EQ(publisher.snapshots.size(), 1u);
  // Day 0's published weights equal the trainer's current weights...
  EXPECT_TRUE(
      ModelsBitwiseEqual(*publisher.snapshots[0].model, trainer.model()));
  ASSERT_TRUE(trainer.Step(&stream).ok());
  // ...and stay frozen after day 1 mutates the trainer (deep copy, no
  // aliasing into the live runtime).
  EXPECT_FALSE(
      ModelsBitwiseEqual(*publisher.snapshots[0].model, trainer.model()));
  EXPECT_TRUE(
      ModelsBitwiseEqual(*publisher.snapshots[1].model, trainer.model()));
  // No published parameter is a node of the training model.
  std::set<const nn::Node*> training_nodes;
  for (const nn::Parameter* param :
       const_cast<core::AtnnModel&>(trainer.model()).Parameters()) {
    training_nodes.insert(param->node());
  }
  for (const runtime::ServingSnapshot& snapshot : publisher.snapshots) {
    for (const nn::Parameter* param :
         const_cast<core::AtnnModel&>(*snapshot.model).Parameters()) {
      EXPECT_EQ(training_nodes.count(param->node()), 0u) << param->name();
    }
  }
}

TEST(StreamingTrainerTest, SwitchesOffMatchesBatchTrainerBitwise) {
  const data::TmallDataset dataset = MakeTinyWorld();
  const StreamingTrainerConfig config = TinyTrainerConfig();
  CapturingPublisher publisher;
  StreamingTrainer trainer(dataset, config, publisher.Fn());
  sim::ArrivalStream stream(&dataset, TinyStreamConfig());
  const auto reports = trainer.Run(&stream);
  ASSERT_TRUE(reports.ok());

  // Replay day 0 through the public batch entry point: same indices into
  // the trainer's grown dataset, same per-day seed, fresh model from the
  // same seeded init (the trainer was not warm-started).
  data::TmallDataset replay_dataset = trainer.dataset();
  replay_dataset.train_indices = (*reports)[0].train_indices;
  core::AtnnModel replay_model(*replay_dataset.user_schema,
                               *replay_dataset.item_profile_schema,
                               *replay_dataset.item_stats_schema,
                               config.model);
  core::TrainOptions replay_options = config.train;
  replay_options.seed = StreamingTrainer::DaySeed(config.train.seed, 0);
  const auto replay_history =
      core::TrainAtnnModel(&replay_model, replay_dataset, replay_options);
  const auto& day0_history = (*reports)[0].history;
  ASSERT_EQ(day0_history.size(), replay_history.size());
  ASSERT_FALSE(day0_history.empty());
  EXPECT_EQ(0, std::memcmp(day0_history.data(), replay_history.data(),
                           day0_history.size() * sizeof(core::EpochStats)));
  // The weights after the replayed day-0 epoch are the day-0 publish.
  EXPECT_TRUE(
      ModelsBitwiseEqual(*publisher.snapshots[0].model, replay_model));
}

TEST(StreamingTrainerTest, WarmStartCopiesServedWeights) {
  const data::TmallDataset dataset = MakeTinyWorld();
  const StreamingTrainerConfig config = TinyTrainerConfig();
  core::AtnnModel pretrained(*dataset.user_schema,
                             *dataset.item_profile_schema,
                             *dataset.item_stats_schema, config.model);
  core::TrainOptions pretrain = config.train;
  core::TrainAtnnModel(&pretrained, dataset, pretrain);
  CapturingPublisher publisher;
  StreamingTrainer trainer(dataset, config, publisher.Fn());
  EXPECT_FALSE(ModelsBitwiseEqual(trainer.model(), pretrained));
  ASSERT_TRUE(trainer.WarmStartFrom(pretrained).ok());
  EXPECT_TRUE(ModelsBitwiseEqual(trainer.model(), pretrained));
}

TEST(StreamingTrainerTest, PublishRejectionIsRecordedNotFatal) {
  const data::TmallDataset dataset = MakeTinyWorld();
  int64_t calls = 0;
  StreamingTrainer trainer(
      dataset, TinyTrainerConfig(),
      [&](runtime::ServingSnapshot) -> StatusOr<uint64_t> {
        ++calls;
        if (calls == 1) return Status::Unavailable("runtime down");
        return static_cast<uint64_t>(calls);
      });
  sim::ArrivalStream stream(&dataset, TinyStreamConfig());
  const auto reports = trainer.Run(&stream);
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->size(), 3u);
  EXPECT_FALSE((*reports)[0].published);
  EXPECT_TRUE((*reports)[1].published);
  EXPECT_TRUE((*reports)[2].published);

  int64_t publishes = 0;
  int64_t failures = 0;
  int64_t days = 0;
  for (const auto& [name, value] :
       trainer.metrics_registry().Collect().counters) {
    if (name == "stream.publishes") publishes = value;
    if (name == "stream.publish_failures") failures = value;
    if (name == "stream.days") days = value;
  }
  EXPECT_EQ(days, 3);
  EXPECT_EQ(publishes, 2);
  EXPECT_EQ(failures, 1);
}

TEST(StreamingTrainerTest, InvalidTrainOptionsSurfaceAsStatus) {
  const data::TmallDataset dataset = MakeTinyWorld();
  StreamingTrainerConfig zero_epochs = TinyTrainerConfig();
  zero_epochs.train.epochs = 0;
  // A zero learning rate used to pass Validate and abort inside Adam.
  StreamingTrainerConfig zero_rate = TinyTrainerConfig();
  zero_rate.train.learning_rate = 0.0f;
  for (const StreamingTrainerConfig& config : {zero_epochs, zero_rate}) {
    CapturingPublisher publisher;
    StreamingTrainer trainer(dataset, config, publisher.Fn());
    sim::ArrivalStream stream(&dataset, TinyStreamConfig());
    EXPECT_FALSE(trainer.Step(&stream).ok());
    EXPECT_TRUE(publisher.snapshots.empty());
  }
}

TEST(StreamingTrainerTest, ReplaySamplesExtendTheTrainingSet) {
  const data::TmallDataset dataset = MakeTinyWorld();
  StreamingTrainerConfig config = TinyTrainerConfig();
  config.replay_interactions = 64;
  CapturingPublisher publisher;
  StreamingTrainer trainer(dataset, config, publisher.Fn());
  sim::ArrivalStream stream(&dataset, TinyStreamConfig());
  const auto report = trainer.Step(&stream);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(static_cast<int64_t>(report->train_indices.size()),
            report->feedback_rows + 64);
  // The replay tail draws from the historical train split, not the day's
  // freshly appended rows.
  const int64_t history_rows =
      static_cast<int64_t>(dataset.interaction_user.size());
  for (size_t i = static_cast<size_t>(report->feedback_rows);
       i < report->train_indices.size(); ++i) {
    EXPECT_LT(report->train_indices[i], history_rows);
  }
}

/// Streams TinyStreamConfig's days into a live runtime that first serves
/// the seeded, untrained model, while a client thread scores Zipf rows
/// through runtime.Score for the whole run. Every request is answered,
/// every day publishes with finite losses, and versions strictly rise.
void ExpectPublishesIntoALiveRuntime(bool switches_on) {
  const data::TmallDataset dataset = MakeTinyWorld();
  StreamingTrainerConfig config = TinyTrainerConfig();
  config.train.cross_batch_negatives = switches_on;
  config.train.one_backprop = switches_on;

  const core::AtnnModel initial_model(*dataset.user_schema,
                                      *dataset.item_profile_schema,
                                      *dataset.item_stats_schema,
                                      config.model);
  const core::PopularityPredictor initial_predictor =
      core::PopularityPredictor::Build(
          initial_model, dataset,
          core::SelectActiveUsers(dataset, config.active_user_group));
  runtime::ServingSnapshot initial;
  initial.model = runtime::Unowned(&initial_model);
  initial.predictor = runtime::Unowned(&initial_predictor);
  initial.item_profiles = runtime::Unowned(&dataset.item_profiles);

  runtime::RuntimeConfig runtime_config;
  runtime_config.num_workers = 2;
  runtime::InferenceRuntime runtime(runtime_config);
  ASSERT_TRUE(runtime.Publish(initial).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> errors{0};
  std::thread client([&] {
    Rng rng(0xbe7c11ULL);
    while (!stop.load()) {
      const int64_t item =
          dataset.new_items[rng.Zipf(dataset.new_items.size(), 1.1)];
      (runtime.Score(item).ok() ? answered : errors).fetch_add(1);
    }
  });
  StreamingTrainer trainer(
      dataset, config, [&](runtime::ServingSnapshot snapshot) {
        return runtime.Publish(std::move(snapshot));
      });
  sim::ArrivalStream stream(&dataset, TinyStreamConfig());
  const auto reports = trainer.Run(&stream);
  stop.store(true);
  client.join();
  // The last published day's weights are live: scoring works.
  const auto scored = runtime.Score(dataset.new_items.front());
  runtime.Shutdown();
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  EXPECT_TRUE(std::isfinite(scored.value().score));

  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(),
            static_cast<size_t>(TinyStreamConfig().num_days));
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(answered.load(), 0);
  uint64_t last_version = 1;  // the initial publish
  for (const auto& report : *reports) {
    EXPECT_TRUE(report.published) << "day " << report.day;
    EXPECT_GT(report.published_version, last_version) << "day " << report.day;
    last_version = report.published_version;
    ASSERT_FALSE(report.history.empty());
    for (const core::EpochStats& epoch : report.history) {
      EXPECT_TRUE(std::isfinite(epoch.loss_i) &&
                  std::isfinite(epoch.loss_g) && std::isfinite(epoch.loss_s))
          << "day " << report.day;
    }
  }
  EXPECT_EQ(runtime.snapshot_version(), last_version);
}

TEST(StreamingTrainerTest, PublishesIntoALiveRuntime) {
  ExpectPublishesIntoALiveRuntime(/*switches_on=*/false);
}

// Cross-batch negatives and one-backprop alternation on.
TEST(StreamingTrainerTest, PublishesIntoALiveRuntimeWithTheSwitchesOn) {
  ExpectPublishesIntoALiveRuntime(/*switches_on=*/true);
}

}  // namespace
}  // namespace atnn::stream
