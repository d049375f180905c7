// Seeded mutation loop over serialized model snapshots. Every mutant is
// written through BinaryWriter::FlushToFile, so it carries a fresh CRC and
// reaches the parser, and goes into a fresh model through
// LoadModelSnapshot. It must then stop with a Status that leaves the model's
// parameters untouched, or load a model that publish refuses, or publish
// and serve. Nothing may abort. Under ASan+UBSan, which runs every test,
// no memory or undefined-behaviour error may show on the way either.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/atnn.h"
#include "core/popularity.h"
#include "data/tmall.h"
#include "runtime/inference_runtime.h"
#include "serving/model_snapshot.h"

namespace atnn::serving {
namespace {

constexpr char kTag[] = "mutation-test";

/// One unsigned integer of a serialized snapshot: where it sits, its width
/// in bytes, what it encodes and its value.
struct IntSlot {
  size_t offset = 0;
  size_t width = 0;
  std::string what;
  uint64_t value = 0;
};

/// Lists every integer of a well-formed SaveModelSnapshot payload in wire
/// order: the version, the tag length, the parameter count, then each
/// parameter's name length, rows, cols and value count.
std::vector<IntSlot> IntSlots(const std::string& payload) {
  size_t at = 0;
  std::vector<IntSlot> slots;
  const auto take = [&](size_t width, const std::string& what) {
    ATNN_CHECK(at + width <= payload.size()) << "payload ends at " << at;
    uint64_t value = 0;
    std::memcpy(&value, payload.data() + at, width);
    slots.push_back({at, width, what, value});
    at += width;
    return value;
  };
  take(sizeof(uint32_t), "version");
  at += take(sizeof(uint64_t), "tag length");
  const uint64_t count = take(sizeof(uint64_t), "parameter count");
  for (uint64_t p = 0; p < count; ++p) {
    const std::string param = "parameter " + std::to_string(p) + " ";
    at += take(sizeof(uint64_t), param + "name length");
    take(sizeof(int64_t), param + "rows");
    take(sizeof(int64_t), param + "cols");
    at += take(sizeof(uint64_t), param + "value count") * sizeof(float);
  }
  ATNN_CHECK_EQ(at, payload.size());
  return slots;
}

/// `payload` with the `slot.width` bytes at `slot.offset` set to `value`.
std::string WithInt(const std::string& payload, const IntSlot& slot,
                    uint64_t value) {
  std::string mutant = payload;
  std::memcpy(mutant.data() + slot.offset, &value, slot.width);
  return mutant;
}

/// Where a mutant stopped.
enum class Stage { kLoad, kPublish, kServed };

/// Every parameter value of `model`, in order, as raw bytes.
std::string ParameterBytes(nn::Module* model) {
  std::string bytes;
  for (const nn::Parameter* param : model->Parameters()) {
    const nn::Tensor& value = param->value();
    bytes.append(reinterpret_cast<const char*>(value.data()),
                 static_cast<size_t>(value.numel()) * sizeof(float));
  }
  return bytes;
}

class ModelSnapshotMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = core::testing_helpers::MakeNormalizedTinyDataset();
    const std::unique_ptr<core::AtnnModel> model = MakeModel(11);
    predictor_ = std::make_unique<core::PopularityPredictor>(
        core::PopularityPredictor::Build(
            *model, dataset_, core::SelectActiveUsers(dataset_, 32)));
    // The payload SaveModelSnapshot writes inside the file container.
    BinaryWriter writer;
    writer.WriteU32(kSnapshotFormatVersion);
    writer.WriteString(kTag);
    nn::SaveParameters(model->Parameters(), &writer);
    payload_ = writer.buffer();
    // One file per test: ctest runs this fixture's tests as concurrent
    // processes, and a shared file let one test read another's mutant.
    path_ = testing::TempDir() + "/model_snapshot_mutant_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<core::AtnnModel> MakeModel(uint64_t seed) const {
    core::AtnnConfig config;
    config.tower =
        core::testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = seed;
    return std::make_unique<core::AtnnModel>(
        *dataset_.user_schema, *dataset_.item_profile_schema,
        *dataset_.item_stats_schema, config);
  }

  /// Writes `payload` as a snapshot file with a fresh CRC.
  void Write(const std::string& payload) const {
    BinaryWriter writer;
    writer.WriteBytes(payload.data(), payload.size());
    ATNN_CHECK(writer.FlushToFile(path_).ok());
  }

  /// Loads `payload` into `model`. A failed load must leave the model's
  /// parameters as they were, byte for byte.
  Status Load(const std::string& payload, nn::Module* model) const {
    Write(payload);
    const std::string before = ParameterBytes(model);
    Status status = LoadModelSnapshot(model, path_, kTag);
    if (!status.ok()) {
      EXPECT_TRUE(ParameterBytes(model) == before)
          << "a failed load (" << status.ToString()
          << ") changed the model's parameters";
    }
    return status;
  }

  /// Loads `payload` into a fresh model, publishes it over the served
  /// version and scores a few items.
  Stage Run(const std::string& payload, runtime::InferenceRuntime* runtime) {
    std::shared_ptr<core::AtnnModel> model = MakeModel(29);
    if (!Load(payload, model.get()).ok()) return Stage::kLoad;
    runtime::ServingSnapshot snapshot;
    snapshot.model = model;
    snapshot.predictor = runtime::Unowned(predictor_.get());
    snapshot.item_profiles = runtime::Unowned(&dataset_.item_profiles);
    if (!runtime->Publish(std::move(snapshot)).ok()) return Stage::kPublish;
    for (size_t i = 0; i < 3; ++i) {
      const auto answer = runtime->Score(dataset_.new_items[i]);
      EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    }
    return Stage::kServed;
  }

  static runtime::RuntimeConfig Config() {
    runtime::RuntimeConfig config;
    config.num_workers = 1;
    config.enable_score_cache = false;
    return config;
  }

  data::TmallDataset dataset_;
  std::unique_ptr<core::PopularityPredictor> predictor_;
  std::string path_;
  std::string payload_;
};

// A value vector one float short of rows x cols used to pass every read
// and then abort the process when the loader built the parameter's tensor.
TEST_F(ModelSnapshotMutationTest, ShortValueVectorIsCorruption) {
  IntSlot count;
  for (const IntSlot& slot : IntSlots(payload_)) {
    if (slot.what == "parameter 0 value count") count = slot;
  }
  ASSERT_GT(count.value, 0u);
  std::string mutant = WithInt(payload_, count, count.value - 1);
  mutant.erase(count.offset + count.width, sizeof(float));
  EXPECT_EQ(Load(mutant, MakeModel(29).get()).code(),
            StatusCode::kCorruption);
}

// A snapshot that names its first parameter twice and its second never
// used to load OK, leaving the second at its initial values.
TEST_F(ModelSnapshotMutationTest, RepeatedParameterNameIsCorruption) {
  const std::unique_ptr<core::AtnnModel> source = MakeModel(11);
  std::vector<nn::Parameter*> params = source->Parameters();
  ASSERT_GE(params.size(), 2u);
  params[1] = params[0];
  BinaryWriter writer;
  writer.WriteU32(kSnapshotFormatVersion);
  writer.WriteString(kTag);
  nn::SaveParameters(params, &writer);
  EXPECT_EQ(Load(writer.buffer(), MakeModel(29).get()).code(),
            StatusCode::kCorruption);
}

// Bytes after the last record used to be noticed only after every
// parameter had been overwritten.
TEST_F(ModelSnapshotMutationTest, TrailingBytesAreCorruption) {
  for (const size_t extra : {size_t{1}, sizeof(float), size_t{64}}) {
    EXPECT_EQ(Load(payload_ + std::string(extra, '\0'), MakeModel(29).get())
                  .code(),
              StatusCode::kCorruption)
        << extra;
  }
}

TEST_F(ModelSnapshotMutationTest, EveryMutantStopsWithAStatusOrServes) {
  std::vector<std::string> mutants;
  // Every integer overwritten with the values a corrupt header most likely
  // carries.
  for (const IntSlot& slot : IntSlots(payload_)) {
    for (const uint64_t value :
         {uint64_t{0}, ~uint64_t{0}, uint64_t{1} << 40, slot.value - 1,
          slot.value + 1}) {
      mutants.push_back(WithInt(payload_, slot, value));
    }
  }
  Rng rng(0x5a17'0b5eu);
  // A NaN in some parameter's values, which publish refuses when the
  // generator reads it.
  std::vector<IntSlot> counts;
  for (const IntSlot& slot : IntSlots(payload_)) {
    if (slot.what.ends_with("value count")) counts.push_back(slot);
  }
  for (int i = 0; i < 40; ++i) {
    const IntSlot& count = counts[static_cast<size_t>(
        rng.UniformInt(int64_t{0}, static_cast<int64_t>(counts.size())))];
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::string mutant = payload_;
    const auto at = static_cast<size_t>(rng.UniformInt(count.value));
    std::memcpy(mutant.data() + count.offset + count.width +
                    at * sizeof(float),
                &nan, sizeof(nan));
    mutants.push_back(std::move(mutant));
  }
  const auto size = static_cast<int64_t>(payload_.size());
  // Single bit flips anywhere, and a few 8-bit bursts.
  for (int i = 0; i < 400; ++i) {
    std::string mutant = payload_;
    const int flips = i % 10 == 0 ? 8 : 1;
    for (int f = 0; f < flips; ++f) {
      const auto byte =
          static_cast<size_t>(rng.UniformInt(int64_t{0}, size));
      mutant[byte] = static_cast<char>(
          mutant[byte] ^ (1 << rng.UniformInt(int64_t{0}, int64_t{8})));
    }
    mutants.push_back(std::move(mutant));
  }
  // Truncations: every prefix of the header, then seeded lengths.
  for (int64_t length = 0; length < 64; ++length) {
    mutants.push_back(payload_.substr(0, static_cast<size_t>(length)));
  }
  for (int i = 0; i < 100; ++i) {
    mutants.push_back(payload_.substr(
        0, static_cast<size_t>(rng.UniformInt(int64_t{0}, size))));
  }

  runtime::InferenceRuntime runtime(Config());
  // The unmutated payload loads, publishes and serves.
  ASSERT_EQ(Run(payload_, &runtime), Stage::kServed);
  int64_t stopped_at[3] = {0, 0, 0};
  for (const std::string& mutant : mutants) {
    ++stopped_at[static_cast<int>(Run(mutant, &runtime))];
  }
  runtime.Shutdown();
  std::printf(
      "%zu mutants: %lld stopped at load, %lld at publish, %lld served\n",
      mutants.size(), static_cast<long long>(stopped_at[0]),
      static_cast<long long>(stopped_at[1]),
      static_cast<long long>(stopped_at[2]));
  // Every end of the path must be reached for the loop to mean anything.
  EXPECT_GT(stopped_at[static_cast<int>(Stage::kLoad)], 0);
  EXPECT_GT(stopped_at[static_cast<int>(Stage::kPublish)], 0);
  EXPECT_GT(stopped_at[static_cast<int>(Stage::kServed)], 0);
}

}  // namespace
}  // namespace atnn::serving
