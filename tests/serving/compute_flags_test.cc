#include "serving/compute_flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels.h"

namespace atnn::serving {
namespace {

/// Every test parses a fresh parser carrying only the shared compute flags
/// and restores the process-global kernel backend afterwards (resolving
/// --atnn_kernel applies it for real).
class ComputeFlagsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ASSERT_TRUE(nn::kernels::SetBackendFromString("auto").ok());
  }

  static StatusOr<ComputeOptions> Resolve(std::vector<const char*> args) {
    FlagParser flags("test tool");
    AddComputeFlags(&flags, "precision help for this tool");
    const Status parsed =
        flags.Parse(static_cast<int>(args.size()), args.data());
    if (!parsed.ok()) return parsed;
    return ResolveComputeFlags(flags);
  }
};

TEST_F(ComputeFlagsTest, DefaultsAreFp32AutoCompileAutoBackend) {
  const auto options = Resolve({});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->precision, quant::Precision::kFp32);
  EXPECT_FALSE(options->backend_name.empty());
}

TEST_F(ComputeFlagsTest, ExplicitValuesResolve) {
  const auto options =
      Resolve({"--atnn_kernel=scalar", "--atnn_precision=int8"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->precision, quant::Precision::kInt8);
  EXPECT_EQ(options->backend_name, "scalar");
}

TEST_F(ComputeFlagsTest, JunkKernelIsInvalidArgument) {
  const auto options = Resolve({"--atnn_kernel=quantum"});
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ComputeFlagsTest, JunkPrecisionIsInvalidArgument) {
  const auto options = Resolve({"--atnn_precision=fp7"});
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ComputeFlagsTest, UnknownFlagStillRejectedByTheParser) {
  const auto options = Resolve({"--atnn_kernal=scalar"});  // typo'd name
  EXPECT_FALSE(options.ok());
}

}  // namespace
}  // namespace atnn::serving
