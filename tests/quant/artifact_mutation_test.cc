// Seeded mutation loop over serialized int8 and bf16 artifacts. Every
// mutant goes through the whole serving path a quantized artifact takes —
// DeserializeFrom on an in-memory reader (no container CRC to hide the
// damage), Validate, the lowering into a CompiledPlan, and one Execute on a
// fixed batch — and must either stop with a Status at some stage or execute
// cleanly. Under ASan+UBSan, which runs every test, "cleanly" means no
// memory or undefined-behaviour error on the way.

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "artifact_layout.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/atnn.h"
#include "data/schema.h"
#include "data/tmall.h"
#include "nn/ir/plan.h"
#include "quant/quantized_generator.h"

namespace atnn::quant {
namespace {

using wire::Int64Slot;
using wire::Int64Slots;
using wire::WithInt64;

/// Where a mutant stopped.
enum class Stage { kDeserialize, kValidate, kLower, kExecute, kServed };

struct Outcome {
  Stage stage = Stage::kServed;
  Status status;
};

class ArtifactMutationTest : public ::testing::TestWithParam<Precision> {
 protected:
  static constexpr int64_t kBatch = 16;

  void SetUp() override {
    dataset_ = core::testing_helpers::MakeNormalizedTinyDataset();
    core::AtnnConfig config;
    config.tower =
        core::testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = 11;
    const core::AtnnModel model(*dataset_.user_schema,
                                *dataset_.item_profile_schema,
                                *dataset_.item_stats_schema, config);
    const std::vector<int64_t> rows(dataset_.new_items.begin(),
                                    dataset_.new_items.begin() + kBatch);
    batch_ = data::GatherBlock(dataset_.item_profiles, rows);
    auto built = QuantizedGenerator::Build(model, batch_, GetParam());
    ATNN_CHECK(built.ok()) << built.status().ToString();
    BinaryWriter writer;
    built->SerializeTo(&writer);
    payload_ = writer.buffer();
    ASSERT_EQ(Run(payload_).stage, Stage::kServed);
  }

  /// The serving path of one (possibly corrupt) payload.
  Outcome Run(const std::string& payload) const {
    BinaryReader reader(payload);
    auto artifact = QuantizedGenerator::DeserializeFrom(&reader);
    if (!artifact.ok()) return {Stage::kDeserialize, artifact.status()};
    if (Status valid = artifact->Validate(); !valid.ok()) {
      return {Stage::kValidate, valid};
    }
    const auto plan =
        CompileQuantizedPlan(*artifact, dataset_.item_profiles, kBatch);
    if (!plan.ok()) return {Stage::kLower, plan.status()};
    nn::ir::PlanScratch scratch;
    const auto out = (*plan)->Execute({&batch_.categorical, &batch_.numeric},
                                      kBatch, &scratch);
    if (!out.ok()) return {Stage::kExecute, out.status()};
    return {};
  }

  /// The int64 of `payload_` described as `what`.
  Int64Slot Slot(const std::string& what) const {
    for (const Int64Slot& slot : Int64Slots(payload_)) {
      if (slot.what == what) return slot;
    }
    ATNN_CHECK(false) << "no int64 " << what;
    return {};
  }

  data::TmallDataset dataset_;
  data::BlockBatch batch_;
  std::string payload_;
};

// A field whose hash_buckets points past its table used to deserialize and
// validate, and then the forward read past the table.
TEST_P(ArtifactMutationTest, HashBucketsPastTheTableFailValidate) {
  const Int64Slot slot = Slot("field 0 hash_buckets");
  ASSERT_EQ(slot.value, 0);
  for (const int64_t buckets : {int64_t{1} << 40, slot.rows + 1,
                                slot.rows - 1, int64_t{-1}}) {
    const Outcome outcome = Run(WithInt64(payload_, slot.offset, buckets));
    EXPECT_EQ(outcome.stage, Stage::kValidate) << buckets;
    EXPECT_EQ(outcome.status.code(), StatusCode::kDataLoss) << buckets;
  }
  // Exactly the table's rows is a hashed field, and it serves.
  EXPECT_EQ(Run(WithInt64(payload_, slot.offset, slot.rows)).stage,
            Stage::kServed);
}

// A count with its high bit set used to size a vector before anything was
// read (std::bad_alloc out of DeserializeFrom).
TEST_P(ArtifactMutationTest, HugeFieldCountIsCorruption) {
  const size_t offset = Slot("vector_dim").offset + sizeof(int64_t);
  std::string payload = payload_;
  uint32_t num_fields = 0;
  std::memcpy(&num_fields, payload.data() + offset, sizeof(num_fields));
  ASSERT_EQ(num_fields, dataset_.item_profile_schema->num_categorical());
  num_fields |= 0x80000000u;
  std::memcpy(payload.data() + offset, &num_fields, sizeof(num_fields));
  const Outcome outcome = Run(payload);
  EXPECT_EQ(outcome.stage, Stage::kDeserialize);
  EXPECT_EQ(outcome.status.code(), StatusCode::kCorruption);
}

// A dense layer's activation is a u32 tag: 0 identity, 1 relu. Any other
// tag is Corruption at deserialize, for a deep layer and for the head.
TEST_P(ArtifactMutationTest, ActivationTagPastReluIsCorruption) {
  for (const auto& [layer, tag] : {std::pair<std::string, uint32_t>{
                                       "deep 0", 1},
                                   {"head", 0}}) {
    const size_t offset = Slot(layer + " out_dim").offset + sizeof(int64_t);
    uint32_t stored = 0;
    std::memcpy(&stored, payload_.data() + offset, sizeof(stored));
    ASSERT_EQ(stored, tag) << layer;
    for (const uint32_t bad : {2u, 3u, 4u, 0xffffffffu}) {
      std::string payload = payload_;
      std::memcpy(payload.data() + offset, &bad, sizeof(bad));
      const Outcome outcome = Run(payload);
      EXPECT_EQ(outcome.stage, Stage::kDeserialize) << layer << " " << bad;
      EXPECT_EQ(outcome.status.code(), StatusCode::kCorruption)
          << layer << " " << bad;
    }
  }
}

TEST_P(ArtifactMutationTest, EveryMutantStopsWithAStatusOrServes) {
  std::vector<std::string> mutants;
  // Every int64 overwritten with the values a corrupt header most likely
  // carries, and with its table's rows +- 1.
  for (const Int64Slot& slot : Int64Slots(payload_)) {
    for (const int64_t value :
         {int64_t{0}, int64_t{-1}, int64_t{1} << 40, slot.value - 1,
          slot.value + 1, slot.rows - 1, slot.rows + 1}) {
      mutants.push_back(WithInt64(payload_, slot.offset, value));
    }
  }
  Rng rng(0x3a7f'1d02u + static_cast<uint64_t>(GetParam()));
  const auto size = static_cast<int64_t>(payload_.size());
  // Single bit flips anywhere, and a few bursts of them.
  for (int i = 0; i < 1500; ++i) {
    std::string mutant = payload_;
    const int flips = i % 10 == 0 ? 8 : 1;
    for (int f = 0; f < flips; ++f) {
      const int64_t byte = rng.UniformInt(int64_t{0}, size);
      mutant[static_cast<size_t>(byte)] = static_cast<char>(
          mutant[static_cast<size_t>(byte)] ^
          (1 << rng.UniformInt(int64_t{0}, int64_t{8})));
    }
    mutants.push_back(std::move(mutant));
  }
  // Truncations: every prefix of the header, then seeded lengths.
  for (int64_t length = 0; length < 64; ++length) {
    mutants.push_back(payload_.substr(0, static_cast<size_t>(length)));
  }
  for (int i = 0; i < 200; ++i) {
    mutants.push_back(payload_.substr(
        0, static_cast<size_t>(rng.UniformInt(int64_t{0}, size))));
  }

  int64_t stopped_at[5] = {0, 0, 0, 0, 0};
  for (const std::string& mutant : mutants) {
    const Outcome outcome = Run(mutant);
    ++stopped_at[static_cast<int>(outcome.stage)];
    if (outcome.stage != Stage::kServed) {
      EXPECT_FALSE(outcome.status.ok());
    }
  }
  std::printf(
      "%zu mutants: %lld stopped at deserialize, %lld at validate, %lld at "
      "lowering, %lld at execute, %lld served\n",
      mutants.size(), static_cast<long long>(stopped_at[0]),
      static_cast<long long>(stopped_at[1]),
      static_cast<long long>(stopped_at[2]),
      static_cast<long long>(stopped_at[3]),
      static_cast<long long>(stopped_at[4]));
  // Both ends of the path must be reached for the loop to mean anything.
  EXPECT_GT(stopped_at[static_cast<int>(Stage::kDeserialize)], 0);
  EXPECT_GT(stopped_at[static_cast<int>(Stage::kValidate)], 0);
  EXPECT_GT(stopped_at[static_cast<int>(Stage::kServed)], 0);
}

INSTANTIATE_TEST_SUITE_P(
    Precisions, ArtifactMutationTest,
    ::testing::Values(Precision::kInt8, Precision::kBf16),
    [](const ::testing::TestParamInfo<Precision>& info) {
      return std::string(PrecisionName(info.param));
    });

}  // namespace
}  // namespace atnn::quant
