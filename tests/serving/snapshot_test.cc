#include "serving/model_snapshot.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"

namespace atnn::serving {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Two-layer module used as the snapshot subject.
class ToyModel : public nn::Module {
 public:
  explicit ToyModel(uint64_t seed)
      : rng_(seed),
        dense_("toy.dense", 4, 3, nn::Activation::kRelu, &rng_),
        bag_("toy", {{"field", 10, 2}}, &rng_) {}

  void CollectParameters(std::vector<nn::Parameter*>* out) override {
    dense_.CollectParameters(out);
    bag_.CollectParameters(out);
  }

  nn::Var Forward(const nn::Tensor& input,
                  const std::vector<int64_t>& ids) const {
    return nn::ConcatCols({dense_.Forward(nn::Constant(input)),
                           bag_.Forward({ids}, nn::Tensor())});
  }

 private:
  Rng rng_;
  nn::Dense dense_;
  nn::EmbeddingBag bag_;
};

TEST(ModelSnapshotTest, RoundTripReproducesPredictionsBitwise) {
  const std::string path = TempPath("snapshot_roundtrip.bin");
  ToyModel original(1);
  ToyModel restored(2);  // different init: must be overwritten by load

  const nn::Tensor input = nn::Tensor::Ones(2, 4);
  const std::vector<int64_t> ids = {3, 7};
  const nn::Tensor before = original.Forward(input, ids).value();

  ASSERT_TRUE(SaveModelSnapshot(&original, path, "toy-v1").ok());
  ASSERT_TRUE(LoadModelSnapshot(&restored, path, "toy-v1").ok());
  const nn::Tensor after = restored.Forward(input, ids).value();

  ASSERT_TRUE(before.SameShape(after));
  for (int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_EQ(before.data()[i], after.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(ModelSnapshotTest, TagMismatchRejected) {
  const std::string path = TempPath("snapshot_tag.bin");
  ToyModel model(1);
  ASSERT_TRUE(SaveModelSnapshot(&model, path, "toy-v1").ok());
  const Status status = LoadModelSnapshot(&model, path, "toy-v2");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelSnapshotTest, ArchitectureMismatchRejected) {
  // A model with a different parameter set must refuse the snapshot.
  class OtherModel : public nn::Module {
   public:
    OtherModel() : rng_(3), dense_("other.dense", 4, 3,
                                   nn::Activation::kRelu, &rng_) {}
    void CollectParameters(std::vector<nn::Parameter*>* out) override {
      dense_.CollectParameters(out);
    }

   private:
    Rng rng_;
    nn::Dense dense_;
  };

  const std::string path = TempPath("snapshot_arch.bin");
  ToyModel model(1);
  ASSERT_TRUE(SaveModelSnapshot(&model, path, "toy-v1").ok());
  OtherModel other;
  const Status status = LoadModelSnapshot(&other, path, "toy-v1");
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

TEST(ModelSnapshotTest, MissingFileIsIoError) {
  ToyModel model(1);
  const Status status =
      LoadModelSnapshot(&model, "/nonexistent/snap.bin", "toy-v1");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(ModelSnapshotTest, RetryingLoaderRetriesTransientsThenSucceeds) {
  // A snapshot that appears mid-run (checkpoint rotation): the first
  // attempts hit a missing file (retriable IoError); the file materializes
  // before the attempt budget runs out and the load lands.
  const std::string path = TempPath("snapshot_retry_appears.bin");
  std::remove(path.c_str());
  ToyModel original(1);
  ToyModel restored(2);

  std::vector<int64_t> backoffs;
  const auto capture_sleep = [&](int64_t ms) {
    backoffs.push_back(ms);
    // The file shows up while the loader is backing off.
    if (backoffs.size() == 2) {
      ASSERT_TRUE(SaveModelSnapshot(&original, path, "toy-v1").ok());
    }
  };
  const Status status =
      LoadModelSnapshotWithRetry(&restored, path, "toy-v1", capture_sleep);
  EXPECT_TRUE(status.ok()) << status.ToString();
  // Two failures, success on the third and last attempt.
  EXPECT_EQ(backoffs, (std::vector<int64_t>{10, 20}));
  std::remove(path.c_str());
}

TEST(ModelSnapshotTest, RetryingLoaderFailsFastOnPermanentErrors) {
  // A tag mismatch is not transient: retrying would spin on a wrong file.
  const std::string path = TempPath("snapshot_retry_tag.bin");
  ToyModel original(1);
  ASSERT_TRUE(SaveModelSnapshot(&original, path, "toy-v1").ok());

  ToyModel restored(2);
  std::vector<int64_t> backoffs;
  const Status status = LoadModelSnapshotWithRetry(
      &restored, path, "other-tag",
      [&](int64_t ms) { backoffs.push_back(ms); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(backoffs.empty()) << "permanent error must not back off";
  std::remove(path.c_str());
}

TEST(ModelSnapshotTest, RetryingLoaderGivesUpAfterAttemptBudget) {
  ToyModel model(1);
  std::vector<int64_t> backoffs;
  const Status status = LoadModelSnapshotWithRetry(
      &model, "/nonexistent/snap.bin", "toy-v1",
      [&](int64_t ms) { backoffs.push_back(ms); });
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // Sleeps between the 3 attempts only.
  EXPECT_EQ(backoffs, (std::vector<int64_t>{10, 20}));
}

TEST(ModelSnapshotTest, TruncationAtEveryByteBoundaryLoadsCleanly) {
  // A real model snapshot cut at every possible byte boundary: every prefix
  // must be rejected with a clean Status (a crashed loader here would take
  // the serving process down with it) and must leave the target model's
  // weights untouched.
  const std::string path = TempPath("snapshot_fuzz_truncate.bin");
  ToyModel original(1);
  ASSERT_TRUE(SaveModelSnapshot(&original, path, "toy-v1").ok());
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 0u);

  ToyModel restored(2);
  std::vector<nn::Parameter*> params;
  restored.CollectParameters(&params);
  std::vector<float> before;
  for (const nn::Parameter* param : params) {
    const nn::Tensor& value = param->value();
    before.insert(before.end(), value.data(), value.data() + value.numel());
  }

  for (size_t cut = 0; cut < full.size(); ++cut) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    const Status status = LoadModelSnapshot(&restored, path, "toy-v1");
    EXPECT_FALSE(status.ok()) << "prefix of " << cut << " bytes accepted";
  }

  // No partial load leaked into the parameters.
  size_t offset = 0;
  for (const nn::Parameter* param : params) {
    const nn::Tensor& value = param->value();
    for (int64_t i = 0; i < value.numel(); ++i) {
      ASSERT_EQ(value.data()[i], before[offset + static_cast<size_t>(i)]);
    }
    offset += static_cast<size_t>(value.numel());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace atnn::serving
