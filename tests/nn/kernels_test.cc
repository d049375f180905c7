#include "nn/kernels.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace atnn::nn::kernels {
namespace {

/// Restores the dispatched backend when a test body returns.
class BackendGuard {
 public:
  BackendGuard() : previous_(ActiveBackend()) {}
  ~BackendGuard() { (void)SetBackend(previous_); }

 private:
  Backend previous_;
};

std::vector<float> RandomVector(size_t n, uint64_t seed,
                                double zero_fraction = 0.0) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.Uniform() < zero_fraction
            ? 0.0f
            : static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return v;
}

// Sizes straddling the 16- and 8-wide column tiles plus ragged tails
// (n % 8 != 0) and sub-vector-width cases.
constexpr int64_t kSizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 33, 64,
                              100};

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(KernelDispatchTest, BackendNames) {
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kAvx2), "avx2");
}

TEST(KernelDispatchTest, SetBackendScalarAlwaysWorks) {
  BackendGuard guard;
  ASSERT_TRUE(SetBackend(Backend::kScalar).ok());
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  EXPECT_EQ(&Kernels(), &Table(Backend::kScalar));
}

TEST(KernelDispatchTest, SetBackendAvx2MatchesCpuSupport) {
  BackendGuard guard;
  const Status status = SetBackend(Backend::kAvx2);
  if (Avx2Supported()) {
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(ActiveBackend(), Backend::kAvx2);
    EXPECT_EQ(&Kernels(), &Table(Backend::kAvx2));
  } else {
    EXPECT_FALSE(status.ok());
  }
}

TEST(KernelDispatchTest, SetBackendFromString) {
  BackendGuard guard;
  ASSERT_TRUE(SetBackendFromString("scalar").ok());
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);

  ASSERT_TRUE(SetBackendFromString("auto").ok());
  EXPECT_EQ(ActiveBackend(),
            Avx2Supported() ? Backend::kAvx2 : Backend::kScalar);

  EXPECT_EQ(SetBackendFromString("avx2").ok(), Avx2Supported());
  EXPECT_FALSE(SetBackendFromString("sse9").ok());
  EXPECT_FALSE(SetBackendFromString("").ok());
  EXPECT_FALSE(SetBackendFromString("AVX2").ok());  // case-sensitive
}

// ---------------------------------------------------------------------------
// AVX2 kernels vs the scalar reference table. Elementwise kernels whose
// vector lanes perform the exact same operation per element (scale, add,
// bias_identity, bias_relu, cross_epilogue) must match bitwise, and so must
// gemm: both tables compute every element as one FMA chain over p in
// order, its narrow columns included. gemm_trans_*, axpy and the
// reductions reassociate or round once instead of twice, so they keep a
// tolerance.
// ---------------------------------------------------------------------------

class Avx2VsScalarTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Supported()) GTEST_SKIP() << "host lacks AVX2+FMA";
  }
  const KernelTable& scalar() { return Table(Backend::kScalar); }
  const KernelTable& avx2() { return Table(Backend::kAvx2); }
};

TEST_F(Avx2VsScalarTest, Gemm) {
  // Row counts straddle the 4-row tiles and the 8-row (and 16-row) groups
  // of the narrow-column path; column counts cover every n % 8 with and
  // without a wide tile in front; k straddles the 8x8 transpose blocks.
  // A holds exactly m*k floats, so a load past its end shows under ASan.
  for (int64_t m : {1, 3, 7, 8, 9, 61, 64}) {
    for (int64_t k : {1, 7, 95, 127}) {
      for (int64_t n : {1, 2, 3, 5, 7, 9, 15, 17, 33}) {
        const auto a =
            RandomVector(static_cast<size_t>(m * k), 1000 + m * 131 + k);
        const auto b = RandomVector(static_cast<size_t>(k * n), 2000 + n);
        std::vector<float> c_scalar(static_cast<size_t>(m * n));
        std::vector<float> c_avx2(static_cast<size_t>(m * n));
        scalar().gemm(m, k, n, a.data(), b.data(), c_scalar.data());
        avx2().gemm(m, k, n, a.data(), b.data(), c_avx2.data());
        EXPECT_EQ(std::memcmp(c_scalar.data(), c_avx2.data(),
                              c_scalar.size() * sizeof(float)),
                  0)
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST_F(Avx2VsScalarTest, GemmTransBAccumulates) {
  for (int64_t k : kSizes) {
    const int64_t m = 5, n = 6;
    const auto a = RandomVector(static_cast<size_t>(m * k), 10 + k);
    const auto b = RandomVector(static_cast<size_t>(n * k), 20 + k);
    // Pre-fill C to pin the += contract.
    auto c_scalar = RandomVector(static_cast<size_t>(m * n), 30 + k);
    auto c_avx2 = c_scalar;
    scalar().gemm_trans_b_accum(m, k, n, a.data(), b.data(), c_scalar.data());
    avx2().gemm_trans_b_accum(m, k, n, a.data(), b.data(), c_avx2.data());
    for (size_t i = 0; i < c_scalar.size(); ++i) {
      EXPECT_NEAR(c_avx2[i], c_scalar[i], 1e-4) << "k=" << k << " i=" << i;
    }
  }
}

TEST_F(Avx2VsScalarTest, GemmTransAAccumulatesWithSparseA) {
  for (int64_t n : kSizes) {
    const int64_t m = 6, k = 5;
    // 60% zeros exercises the shared zero-skip on both backends.
    const auto a =
        RandomVector(static_cast<size_t>(m * k), 40 + n, /*zero_fraction=*/0.6);
    const auto b = RandomVector(static_cast<size_t>(m * n), 50 + n);
    auto c_scalar = RandomVector(static_cast<size_t>(k * n), 60 + n);
    auto c_avx2 = c_scalar;
    scalar().gemm_trans_a_accum(m, k, n, a.data(), b.data(), c_scalar.data());
    avx2().gemm_trans_a_accum(m, k, n, a.data(), b.data(), c_avx2.data());
    for (size_t i = 0; i < c_scalar.size(); ++i) {
      EXPECT_NEAR(c_avx2[i], c_scalar[i], 1e-4) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(Avx2VsScalarTest, Axpy) {
  for (int64_t n : kSizes) {
    const auto x = RandomVector(static_cast<size_t>(n), 70 + n);
    auto y_scalar = RandomVector(static_cast<size_t>(n), 80 + n);
    auto y_avx2 = y_scalar;
    scalar().axpy(n, 0.37f, x.data(), y_scalar.data());
    avx2().axpy(n, 0.37f, x.data(), y_avx2.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y_avx2[i], y_scalar[i], 1e-6) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(Avx2VsScalarTest, ScaleBitwise) {
  for (int64_t n : kSizes) {
    auto x_scalar = RandomVector(static_cast<size_t>(n), 90 + n);
    auto x_avx2 = x_scalar;
    scalar().scale(n, -1.75f, x_scalar.data());
    avx2().scale(n, -1.75f, x_avx2.data());
    EXPECT_EQ(std::memcmp(x_scalar.data(), x_avx2.data(),
                          static_cast<size_t>(n) * sizeof(float)),
              0)
        << "n=" << n;
  }
}

TEST_F(Avx2VsScalarTest, AddBitwise) {
  for (int64_t n : kSizes) {
    const auto x = RandomVector(static_cast<size_t>(n), 100 + n);
    auto y_scalar = RandomVector(static_cast<size_t>(n), 110 + n);
    auto y_avx2 = y_scalar;
    scalar().add(n, x.data(), y_scalar.data());
    avx2().add(n, x.data(), y_avx2.data());
    EXPECT_EQ(std::memcmp(y_scalar.data(), y_avx2.data(),
                          static_cast<size_t>(n) * sizeof(float)),
              0)
        << "n=" << n;
  }
}

TEST_F(Avx2VsScalarTest, SumAndSquaredNorm) {
  for (int64_t n : kSizes) {
    const auto x = RandomVector(static_cast<size_t>(n), 120 + n);
    EXPECT_NEAR(avx2().sum(n, x.data()), scalar().sum(n, x.data()), 1e-10)
        << "n=" << n;
    EXPECT_NEAR(avx2().squared_norm(n, x.data()),
                scalar().squared_norm(n, x.data()), 1e-10)
        << "n=" << n;
  }
}

TEST_F(Avx2VsScalarTest, Dot) {
  for (int64_t n : kSizes) {
    const auto x = RandomVector(static_cast<size_t>(n), 130 + n);
    const auto y = RandomVector(static_cast<size_t>(n), 140 + n);
    EXPECT_NEAR(avx2().dot(n, x.data(), y.data()),
                scalar().dot(n, x.data(), y.data()),
                1e-4 * std::max<int64_t>(n, 1))
        << "n=" << n;
  }
}

TEST_F(Avx2VsScalarTest, BiasEpilogues) {
  for (int64_t cols : kSizes) {
    const int64_t rows = 3;
    const auto bias = RandomVector(static_cast<size_t>(cols), 150 + cols);
    const auto base =
        RandomVector(static_cast<size_t>(rows * cols), 160 + cols);

    // identity and relu: one add (and one max) per element, bitwise.
    for (int variant = 0; variant < 2; ++variant) {
      auto x_scalar = base;
      auto x_avx2 = base;
      if (variant == 0) {
        scalar().bias_identity(rows, cols, bias.data(), x_scalar.data());
        avx2().bias_identity(rows, cols, bias.data(), x_avx2.data());
      } else {
        scalar().bias_relu(rows, cols, bias.data(), x_scalar.data());
        avx2().bias_relu(rows, cols, bias.data(), x_avx2.data());
      }
      EXPECT_EQ(std::memcmp(x_scalar.data(), x_avx2.data(),
                            x_scalar.size() * sizeof(float)),
                0)
          << "variant=" << variant << " cols=" << cols;
    }
  }
}

TEST_F(Avx2VsScalarTest, UnalignedRowStarts) {
  // Feed pointers offset by one float so no vector load is 32-byte aligned;
  // kernels use unaligned loads and must not care.
  const int64_t n = 37;
  const auto x = RandomVector(static_cast<size_t>(n) + 1, 170);
  auto y_scalar = RandomVector(static_cast<size_t>(n) + 1, 171);
  auto y_avx2 = y_scalar;
  scalar().add(n, x.data() + 1, y_scalar.data() + 1);
  avx2().add(n, x.data() + 1, y_avx2.data() + 1);
  EXPECT_EQ(std::memcmp(y_scalar.data(), y_avx2.data(),
                        y_scalar.size() * sizeof(float)),
            0);

  const auto a = RandomVector(3 * 5 + 1, 172);
  const auto b = RandomVector(5 * static_cast<size_t>(n) + 1, 173);
  std::vector<float> c_scalar(3 * static_cast<size_t>(n) + 1);
  std::vector<float> c_avx2(c_scalar.size());
  scalar().gemm(3, 5, n, a.data() + 1, b.data() + 1, c_scalar.data() + 1);
  avx2().gemm(3, 5, n, a.data() + 1, b.data() + 1, c_avx2.data() + 1);
  EXPECT_EQ(std::memcmp(c_scalar.data(), c_avx2.data(),
                        c_scalar.size() * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// The Deep & Cross epilogue out = ((x0 * s) + b) + x_l: bitwise across the
// tables and bitwise against the scale_rows -> bias_identity -> add
// composition it replaces, hostile values included.
// ---------------------------------------------------------------------------

/// Random values salted with NaN, +-Inf, subnormals and -0.0. The one NaN
/// used is the x86 default NaN (sign set, quiet), which is also what
/// 0 * Inf and Inf - Inf produce, so every NaN in a result has the same
/// bits whichever operand a compiler puts first.
std::vector<float> HostileVector(size_t n, uint64_t seed) {
  const float kDefaultNan = std::bit_cast<float>(0xffc00000u);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kSubnormal = std::numeric_limits<float>::denorm_min() * 37;
  const float specials[] = {kDefaultNan, kInf, -kInf, kSubnormal,
                            -kSubnormal, -0.0f, 0.0f};
  std::vector<float> v = RandomVector(n, seed);
  Rng rng(seed + 1);
  for (float& x : v) {
    if (rng.Uniform() < 0.2) x = specials[rng.UniformInt(std::size(specials))];
  }
  return v;
}

/// The composition the fused epilogue replaces, as the tape runs it:
/// nn::ScaleRows' loop, then the table's bias_identity and add.
std::vector<float> UnfusedCross(const KernelTable& table, int64_t rows,
                                int64_t cols, const std::vector<float>& x0,
                                const std::vector<float>& s,
                                const std::vector<float>& bias,
                                const std::vector<float>& xl) {
  std::vector<float> out = x0;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      out[static_cast<size_t>(r * cols + c)] *= s[static_cast<size_t>(r)];
    }
  }
  table.bias_identity(rows, cols, bias.data(), out.data());
  table.add(rows * cols, xl.data(), out.data());
  return out;
}

TEST(CrossEpilogueTest, MatchesTheUnfusedChainBitwiseOnEveryTable) {
  std::vector<const KernelTable*> tables = {&Table(Backend::kScalar)};
  if (Avx2Supported()) tables.push_back(&Table(Backend::kAvx2));
  constexpr int64_t kRows = 11;
  for (const int64_t cols : {1, 7, 8, 9, 95}) {
    const size_t count = static_cast<size_t>(kRows * cols);
    const auto x0 = HostileVector(count, 500 + cols);
    const auto xl = HostileVector(count, 600 + cols);
    const auto s = HostileVector(kRows, 700 + cols);
    const auto bias = HostileVector(static_cast<size_t>(cols), 800 + cols);
    std::vector<std::vector<float>> fused_by_table;
    for (const KernelTable* table : tables) {
      std::vector<float> fused(count);
      table->cross_epilogue(kRows, cols, x0.data(), s.data(), bias.data(),
                            xl.data(), fused.data());
      const auto unfused = UnfusedCross(*table, kRows, cols, x0, s, bias, xl);
      EXPECT_EQ(std::memcmp(fused.data(), unfused.data(),
                            count * sizeof(float)),
                0)
          << "cols=" << cols;
      // In place over x_l (what the plan's inplace mark does) and over x0.
      std::vector<float> over_xl = xl;
      table->cross_epilogue(kRows, cols, x0.data(), s.data(), bias.data(),
                            over_xl.data(), over_xl.data());
      EXPECT_EQ(std::memcmp(over_xl.data(), fused.data(),
                            count * sizeof(float)),
                0)
          << "cols=" << cols;
      std::vector<float> over_x0 = x0;
      table->cross_epilogue(kRows, cols, over_x0.data(), s.data(),
                            bias.data(), xl.data(), over_x0.data());
      EXPECT_EQ(std::memcmp(over_x0.data(), fused.data(),
                            count * sizeof(float)),
                0)
          << "cols=" << cols;
      fused_by_table.push_back(std::move(fused));
    }
    for (size_t t = 1; t < fused_by_table.size(); ++t) {
      EXPECT_EQ(std::memcmp(fused_by_table[t].data(), fused_by_table[0].data(),
                            count * sizeof(float)),
                0)
          << "cols=" << cols;
    }
  }
}

TEST(CrossEpilogueTest, RoundsTheMultiplyAndBothAddsSeparately) {
  // (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24. Rounded on its own, x0 * s drops
  // the 2^-24 (a tie, broken to even), so adding -1 leaves 2^-11. An FMA
  // would keep it and give 2^-11 + 2^-24, which a float holds exactly.
  const float one_up = 1.0f + std::ldexp(1.0f, -12);
  const float expected = std::ldexp(1.0f, -11);
  std::vector<const KernelTable*> tables = {&Table(Backend::kScalar)};
  if (Avx2Supported()) tables.push_back(&Table(Backend::kAvx2));
  for (const KernelTable* table : tables) {
    for (const int64_t cols : {1, 9}) {  // scalar tail and one vector
      const std::vector<float> x0(static_cast<size_t>(cols), one_up);
      const std::vector<float> bias(static_cast<size_t>(cols), -1.0f);
      const std::vector<float> xl(static_cast<size_t>(cols), 0.0f);
      std::vector<float> out(static_cast<size_t>(cols));
      table->cross_epilogue(1, cols, x0.data(), &one_up, bias.data(),
                            xl.data(), out.data());
      for (const float v : out) EXPECT_EQ(v, expected) << "cols=" << cols;
    }
  }
}

TEST_F(Avx2VsScalarTest, NanAndInfPropagation) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();

  // bias_relu: a NaN sum must survive the max on both backends
  // (std::max(nan, 0) == nan; _mm256_max_ps(zero, v) returns v on NaN).
  for (const KernelTable* table : {&scalar(), &avx2()}) {
    std::vector<float> x = {kNan, -1.0f, 2.0f, kInf, -kInf, 0.5f, -0.5f,
                            1.5f, kNan};
    const std::vector<float> bias(x.size(), 0.0f);
    table->bias_relu(1, static_cast<int64_t>(x.size()), bias.data(), x.data());
    EXPECT_TRUE(std::isnan(x[0]));
    EXPECT_EQ(x[1], 0.0f);
    EXPECT_EQ(x[3], kInf);
    EXPECT_EQ(x[4], 0.0f);  // max(0, -inf)
    EXPECT_TRUE(std::isnan(x[8]));  // NaN in the scalar tail (9 % 8 == 1)

    // gemm: 0 * inf inside the accumulation must produce NaN.
    const std::vector<float> a = {0.0f, 1.0f};
    const std::vector<float> b = {kInf, 3.0f};
    std::vector<float> c = {0.0f};
    table->gemm(1, 2, 1, a.data(), b.data(), c.data());
    EXPECT_TRUE(std::isnan(c[0]));
  }
}

// ---------------------------------------------------------------------------
// Fused DenseAffine vs the unfused AddBias(MatMul) chain (then Relu for
// kRelu). On the scalar backend the contract is bitwise equality of both
// the forward values and every input gradient.
// ---------------------------------------------------------------------------

class FusedDenseAffineTest : public testing::TestWithParam<Activation> {
 protected:
  void SetUp() override {
    ATNN_CHECK(SetBackend(Backend::kScalar).ok());
  }
  void TearDown() override { (void)SetBackend(guard_previous_); }

 private:
  Backend guard_previous_ = ActiveBackend();
};

Var UnfusedChain(const Var& x, const Var& w, const Var& b, Activation act) {
  const Var z = AddBias(MatMul(x, w), b);
  return act == Activation::kRelu ? Relu(z) : z;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0)
      << what << " differs between fused and unfused paths";
}

TEST_P(FusedDenseAffineTest, ForwardAndBackwardBitwiseMatchUnfused) {
  const Activation act = GetParam();
  Rng rng(7);
  Tensor x_init(9, 6);   // 9 rows: blocked + tail GEMM paths
  Tensor w_init(6, 11);  // 11 cols: ragged epilogue tail
  Tensor b_init(1, 11);
  for (int64_t i = 0; i < x_init.numel(); ++i) {
    x_init.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  for (int64_t i = 0; i < w_init.numel(); ++i) {
    w_init.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  for (int64_t i = 0; i < b_init.numel(); ++i) {
    b_init.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }

  Var x_f = Leaf(x_init), w_f = Leaf(w_init), b_f = Leaf(b_init);
  const Var fused = DenseAffine(x_f, w_f, b_f, act);
  Backward(fused);

  Var x_u = Leaf(x_init), w_u = Leaf(w_init), b_u = Leaf(b_init);
  const Var unfused = UnfusedChain(x_u, w_u, b_u, act);
  Backward(unfused);

  ExpectBitwiseEqual(fused.value(), unfused.value(), "forward value");
  ExpectBitwiseEqual(x_f.grad(), x_u.grad(), "dX");
  ExpectBitwiseEqual(w_f.grad(), w_u.grad(), "dW");
  ExpectBitwiseEqual(b_f.grad(), b_u.grad(), "db");
}

INSTANTIATE_TEST_SUITE_P(Activations, FusedDenseAffineTest,
                         testing::Values(Activation::kIdentity,
                                         Activation::kRelu),
                         [](const testing::TestParamInfo<Activation>& info) {
                           return info.param == Activation::kRelu
                                      ? "relu"
                                      : "identity";
                         });

// ---------------------------------------------------------------------------
// Low-precision kernels (int8 / bf16). The int8 chain is held to the
// bitwise gate: integer accumulation is exact and the dequant epilogue is
// two single-rounded multiplies on both backends. gemm_bf16 uses FMA on
// AVX2 and gets a tolerance like the fp32 GEMMs.
// ---------------------------------------------------------------------------

TEST(QuantizeU8Test, RoundingClampAndSpecials) {
  const KernelTable& table = Table(Backend::kScalar);
  const float in[] = {0.0f,    2.5f,    3.5f,   -2.5f,  63.0f,
                      1000.0f, -1000.0f, -64.0f, 0.49f,  -0.49f,
                      std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity(),
                      -std::numeric_limits<float>::infinity()};
  uint8_t q[13] = {};
  table.quantize_u8(13, 1.0f, in, q);
  EXPECT_EQ(q[0], 64);    // 0 -> zero point
  EXPECT_EQ(q[1], 66);    // 2.5 rounds to even 2
  EXPECT_EQ(q[2], 68);    // 3.5 rounds to even 4
  EXPECT_EQ(q[3], 62);    // -2.5 rounds to even -2
  EXPECT_EQ(q[4], 127);   // top of the 7-bit range
  EXPECT_EQ(q[5], 127);   // saturates high
  EXPECT_EQ(q[6], 0);     // saturates low
  EXPECT_EQ(q[7], 0);     // exactly -64
  EXPECT_EQ(q[8], 64);    // rounds to zero point
  EXPECT_EQ(q[9], 64);
  EXPECT_EQ(q[10], 0);    // NaN -> code 0 (matches AVX2 max-operand order)
  EXPECT_EQ(q[11], 127);
  EXPECT_EQ(q[12], 0);
}

TEST_F(Avx2VsScalarTest, QuantizeU8Bitwise) {
  for (const int64_t n : kSizes) {
    std::vector<float> x = RandomVector(static_cast<size_t>(n), 400 + n);
    if (n >= 3) {
      x[0] = std::numeric_limits<float>::quiet_NaN();
      x[1] = std::numeric_limits<float>::infinity();
      x[2] = -std::numeric_limits<float>::infinity();
    }
    std::vector<uint8_t> qa(static_cast<size_t>(n));
    std::vector<uint8_t> qb(static_cast<size_t>(n));
    scalar().quantize_u8(n, 37.5f, x.data(), qa.data());
    avx2().quantize_u8(n, 37.5f, x.data(), qb.data());
    EXPECT_EQ(qa, qb) << "n=" << n;
  }
}

TEST_F(Avx2VsScalarTest, DequantRowS8Bitwise) {
  Rng rng(41);
  for (const int64_t n : kSizes) {
    std::vector<int8_t> q(static_cast<size_t>(n));
    for (int8_t& v : q) {
      v = static_cast<int8_t>(
          static_cast<int>(rng.Uniform() * 255.0) - 127);
    }
    std::vector<float> a(static_cast<size_t>(n));
    std::vector<float> b(static_cast<size_t>(n));
    scalar().dequant_row_s8(n, 0.0123f, q.data(), a.data());
    avx2().dequant_row_s8(n, 0.0123f, q.data(), b.data());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(n) * sizeof(float)))
        << "n=" << n;
  }
}

TEST(PackInt8BTest, QuadInterleaveAndColumnSums) {
  // k=6, n=3: two quads, the second half-padded with zeros.
  const int64_t k = 6;
  const int64_t n = 3;
  ASSERT_EQ(RoundUpK4(k), 8);
  std::vector<int8_t> b(static_cast<size_t>(k * n));
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<int8_t>(static_cast<int>(i) - 9);
  }
  std::vector<int8_t> packed(static_cast<size_t>(RoundUpK4(k) * n), 99);
  PackInt8B(k, n, b.data(), packed.data());
  for (int64_t quad = 0; quad < 2; ++quad) {
    for (int64_t col = 0; col < n; ++col) {
      for (int64_t j = 0; j < 4; ++j) {
        const int64_t p = quad * 4 + j;
        const int8_t expected =
            p < k ? b[static_cast<size_t>(p * n + col)] : int8_t{0};
        EXPECT_EQ(packed[static_cast<size_t>((quad * n + col) * 4 + j)],
                  expected)
            << "quad " << quad << " col " << col << " lane " << j;
      }
    }
  }
  std::vector<int32_t> colsum(static_cast<size_t>(n));
  Int8ColumnSums(k, n, b.data(), colsum.data());
  for (int64_t col = 0; col < n; ++col) {
    int32_t expected = 0;
    for (int64_t p = 0; p < k; ++p) {
      expected += b[static_cast<size_t>(p * n + col)];
    }
    EXPECT_EQ(colsum[static_cast<size_t>(col)], expected) << col;
  }
}

/// Reference for gemm_s8's contract: exact integer accumulation of
/// (a-64)*b, then the same two single-rounded multiplies as the epilogue.
void GemmS8Reference(int64_t m, int64_t k, int64_t k4, int64_t n,
                     const uint8_t* a, const int8_t* b,
                     const float* b_scales, float act_scale, float* c) {
  for (int64_t r = 0; r < m; ++r) {
    for (int64_t col = 0; col < n; ++col) {
      int32_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += (static_cast<int32_t>(a[r * k4 + p]) - 64) *
               static_cast<int32_t>(b[p * n + col]);
      }
      const float s = act_scale * b_scales[col];
      c[r * n + col] = static_cast<float>(acc) * s;
    }
  }
}

TEST_F(Avx2VsScalarTest, GemmS8BitwiseAndMatchesReference) {
  Rng rng(1234);
  for (const int64_t k : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{7},
                          int64_t{12}, int64_t{33}, int64_t{64}}) {
    for (const int64_t n : {int64_t{1}, int64_t{5}, int64_t{8}, int64_t{17},
                            int64_t{32}}) {
      const int64_t m = 3;
      const int64_t k4 = RoundUpK4(k);
      // A: u8 codes with the pad lanes deliberately NOT the zero point —
      // the zero-padded packed B must make them contribute nothing.
      std::vector<uint8_t> a(static_cast<size_t>(m * k4), 200);
      for (int64_t r = 0; r < m; ++r) {
        for (int64_t p = 0; p < k; ++p) {
          a[static_cast<size_t>(r * k4 + p)] =
              static_cast<uint8_t>(rng.Uniform() * 127.9);
        }
      }
      std::vector<int8_t> b(static_cast<size_t>(k * n));
      for (int8_t& v : b) {
        v = static_cast<int8_t>(static_cast<int>(rng.Uniform() * 255.0) -
                                127);
      }
      std::vector<int8_t> packed(static_cast<size_t>(k4 * n));
      PackInt8B(k, n, b.data(), packed.data());
      std::vector<int32_t> colsum(static_cast<size_t>(n));
      Int8ColumnSums(k, n, b.data(), colsum.data());
      std::vector<float> scales(static_cast<size_t>(n));
      for (float& s : scales) {
        s = 0.001f + static_cast<float>(rng.Uniform()) * 0.05f;
      }
      const float act_scale = 0.071f;

      std::vector<float> want(static_cast<size_t>(m * n));
      GemmS8Reference(m, k, k4, n, a.data(), b.data(), scales.data(),
                      act_scale, want.data());
      std::vector<float> got_scalar(static_cast<size_t>(m * n), -1.0f);
      std::vector<float> got_avx2(static_cast<size_t>(m * n), -1.0f);
      scalar().gemm_s8(m, k4, n, a.data(), packed.data(), colsum.data(),
                       scales.data(), act_scale, got_scalar.data());
      avx2().gemm_s8(m, k4, n, a.data(), packed.data(), colsum.data(),
                     scales.data(), act_scale, got_avx2.data());
      EXPECT_EQ(0, std::memcmp(got_scalar.data(), want.data(),
                               want.size() * sizeof(float)))
          << "scalar vs reference, k=" << k << " n=" << n;
      EXPECT_EQ(0, std::memcmp(got_scalar.data(), got_avx2.data(),
                               want.size() * sizeof(float)))
          << "avx2 vs scalar, k=" << k << " n=" << n;
    }
  }
}

TEST(Bf16Test, RoundToNearestEvenAndSpecials) {
  const KernelTable& table = Table(Backend::kScalar);
  const auto from_bits = [](uint32_t bits) {
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
  };
  const float in[] = {1.0f,
                      from_bits(0x3F808000u),   // tie -> even (down)
                      from_bits(0x3F818000u),   // tie -> even (up)
                      from_bits(0x3F808001u),   // above tie -> up
                      -2.5f,
                      std::numeric_limits<float>::infinity(),
                      std::numeric_limits<float>::quiet_NaN()};
  uint16_t out[7] = {};
  table.f32_to_bf16(7, in, out);
  EXPECT_EQ(out[0], 0x3F80);
  EXPECT_EQ(out[1], 0x3F80);  // ties to even keeps the even mantissa
  EXPECT_EQ(out[2], 0x3F82);
  EXPECT_EQ(out[3], 0x3F81);
  EXPECT_EQ(out[4], 0xC020);
  EXPECT_EQ(out[5], 0x7F80);  // Inf survives exactly
  // NaN must stay NaN after rounding (payload quieted, not incremented
  // into Inf): exponent all-ones with a nonzero mantissa.
  EXPECT_EQ(out[6] & 0x7F80, 0x7F80);
  EXPECT_NE(out[6] & 0x007F, 0);

  // Widening is exact: round-tripping a bf16 pattern is the identity.
  float widened[7] = {};
  table.bf16_to_f32(7, out, widened);
  uint16_t again[7] = {};
  table.f32_to_bf16(7, widened, again);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i], again[i]) << i;
}

TEST_F(Avx2VsScalarTest, Bf16ConversionsBitwise) {
  for (const int64_t n : kSizes) {
    std::vector<float> x = RandomVector(static_cast<size_t>(n), 500 + n);
    if (n >= 2) {
      x[0] = std::numeric_limits<float>::quiet_NaN();
      x[1] = std::numeric_limits<float>::infinity();
    }
    std::vector<uint16_t> ha(static_cast<size_t>(n));
    std::vector<uint16_t> hb(static_cast<size_t>(n));
    scalar().f32_to_bf16(n, x.data(), ha.data());
    avx2().f32_to_bf16(n, x.data(), hb.data());
    EXPECT_EQ(ha, hb) << "f32_to_bf16 n=" << n;

    std::vector<float> wa(static_cast<size_t>(n));
    std::vector<float> wb(static_cast<size_t>(n));
    scalar().bf16_to_f32(n, ha.data(), wa.data());
    avx2().bf16_to_f32(n, hb.data(), wb.data());
    EXPECT_EQ(0, std::memcmp(wa.data(), wb.data(),
                             static_cast<size_t>(n) * sizeof(float)))
        << "bf16_to_f32 n=" << n;
  }
}

TEST_F(Avx2VsScalarTest, GemmBf16WithinTolerance) {
  const int64_t m = 4;
  const int64_t k = 33;
  for (const int64_t n : {int64_t{1}, int64_t{8}, int64_t{17}}) {
    const std::vector<float> a =
        RandomVector(static_cast<size_t>(m * k), 600 + n);
    const std::vector<float> b_f32 =
        RandomVector(static_cast<size_t>(k * n), 700 + n);
    std::vector<uint16_t> b(static_cast<size_t>(k * n));
    scalar().f32_to_bf16(k * n, b_f32.data(), b.data());

    std::vector<float> ca(static_cast<size_t>(m * n));
    std::vector<float> cb(static_cast<size_t>(m * n));
    scalar().gemm_bf16(m, k, n, a.data(), b.data(), ca.data());
    avx2().gemm_bf16(m, k, n, a.data(), b.data(), cb.data());
    for (size_t i = 0; i < ca.size(); ++i) {
      EXPECT_NEAR(ca[i], cb[i], 1e-4) << "n=" << n << " i=" << i;
    }

    // And the widened product tracks the fp32 product to bf16 precision
    // (~3 decimal digits on unit-scale data, k=33 accumulation).
    std::vector<float> c_f32(static_cast<size_t>(m * n));
    scalar().gemm(m, k, n, a.data(), b_f32.data(), c_f32.data());
    for (size_t i = 0; i < ca.size(); ++i) {
      EXPECT_NEAR(ca[i], c_f32[i], 0.2) << "n=" << n << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace atnn::nn::kernels
