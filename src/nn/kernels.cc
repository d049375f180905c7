#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ATNN_X86 1
#else
#define ATNN_X86 0
#endif

namespace atnn::nn::kernels {

// ---------------------------------------------------------------------------
// Scalar reference kernels.
//
// These are the pre-SIMD production loops (minus the MatMulInto zero-skip,
// whose removal is bitwise-neutral for finite inputs and fixes NaN/Inf
// propagation in blocked rows). Vectorization is disabled for this family
// so that "scalar" genuinely means one element per instruction: the family
// is the portable fallback, the deterministic reference the AVX2 kernels
// are tested against, and the baseline the bench speedup gate measures.
// FP contraction is unaffected by the pragma, so per-element results match
// the previously auto-vectorized build bit for bit (same a*b+c chains in
// the same order).
// ---------------------------------------------------------------------------

#pragma GCC push_options
#pragma GCC optimize("no-tree-vectorize,no-tree-slp-vectorize")

namespace {

void GemmScalar(int64_t m, int64_t k, int64_t n, const float* a,
                const float* b, float* c) {
  std::memset(c, 0, static_cast<size_t>(m) * n * sizeof(float));
  // 4 rows of A per pass over B: each loaded B row feeds 4 accumulator
  // streams, quartering B traffic while keeping the per-element
  // accumulation order of the plain i-k-j loop.
  const int64_t blocked_rows = m - (m % 4);
  for (int64_t i = 0; i < blocked_rows; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    for (int64_t p = 0; p < k; ++p) {
      const float v0 = a0[p];
      const float v1 = a1[p];
      const float v2 = a2[p];
      const float v3 = a3[p];
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        const float b_val = b_row[j];
        c0[j] += v0 * b_val;
        c1[j] += v1 * b_val;
        c2[j] += v2 * b_val;
        c3[j] += v3 * b_val;
      }
    }
  }
  for (int64_t i = blocked_rows; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a_row[p];
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

void GemmTransBAccumScalar(int64_t m, int64_t k, int64_t n, const float* a,
                           const float* b, float* c) {
  // C[i,j] += dot(A[i,:], B[j,:]) — both operands row-contiguous.
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] += acc;
    }
  }
}

void GemmTransAAccumScalar(int64_t m, int64_t k, int64_t n, const float* a,
                           const float* b, float* c) {
  // C[p,j] += sum_i A[i,p] * B[i,j]; i outermost so A and B stream. The
  // zero-skip pays off because A is usually a ReLU activation (sparse).
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    const float* b_row = b + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a_row[p];
      if (a_val == 0.0f) continue;
      float* c_row = c + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

void AxpyScalar(int64_t n, float alpha, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleScalar(int64_t n, float alpha, float* x) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void AddScalar(int64_t n, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

double SumScalar(int64_t n, const float* x) {
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) total += x[i];
  return total;
}

double SquaredNormScalar(int64_t n, const float* x) {
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    total += static_cast<double>(x[i]) * x[i];
  }
  return total;
}

float DotScalar(int64_t n, const float* x, const float* y) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void BiasIdentityScalar(int64_t rows, int64_t cols, const float* bias,
                        float* x) {
  for (int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

void BiasReluScalar(int64_t rows, int64_t cols, const float* bias, float* x) {
  for (int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = std::max(row[c] + bias[c], 0.0f);
    }
  }
}

// The cross epilogue's mul and two adds must round separately, as they do
// in the three ops it replaces; -march=native lets GCC contract them into
// an FMA otherwise.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

void CrossEpilogueScalar(int64_t rows, int64_t cols, const float* x0,
                         const float* s, const float* bias, const float* xl,
                         float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float factor = s[r];
    const float* x0_row = x0 + r * cols;
    const float* xl_row = xl + r * cols;
    float* out_row = out + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      float v = x0_row[c] * factor;
      v += bias[c];
      out_row[c] = v + xl_row[c];
    }
  }
}

#pragma GCC pop_options

void QuantizeU8Scalar(int64_t n, float inv_scale, const float* x,
                      uint8_t* q) {
  for (int64_t i = 0; i < n; ++i) {
    float v = x[i] * inv_scale;
    // Clamp order mirrors the AVX2 max-then-min sequence: maxps returns
    // its second operand on NaN, so NaN lands on -64 and quantizes to 0.
    if (!(v >= -64.0f)) v = -64.0f;
    if (v > 63.0f) v = 63.0f;
    q[i] = static_cast<uint8_t>(static_cast<int>(std::nearbyintf(v)) + 64);
  }
}

void DequantRowS8Scalar(int64_t n, float scale, const int8_t* q,
                        float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(q[i]) * scale;
  }
}

void GemmS8Scalar(int64_t m, int64_t k, int64_t n, const uint8_t* a,
                  const int8_t* b_packed, const int32_t* b_colsum,
                  const float* b_scales, float act_scale, float* c) {
  const int64_t quads = k / 4;
  for (int64_t r = 0; r < m; ++r) {
    const uint8_t* a_row = a + r * k;
    float* c_row = c + r * n;
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t qd = 0; qd < quads; ++qd) {
        const uint8_t* aq = a_row + qd * 4;
        const int8_t* bq = b_packed + (qd * n + j) * 4;
        acc += static_cast<int32_t>(aq[0]) * bq[0] +
               static_cast<int32_t>(aq[1]) * bq[1] +
               static_cast<int32_t>(aq[2]) * bq[2] +
               static_cast<int32_t>(aq[3]) * bq[3];
      }
      const int32_t corrected = acc - 64 * b_colsum[j];
      const float combined = act_scale * b_scales[j];
      c_row[j] = static_cast<float>(corrected) * combined;
    }
  }
}

uint16_t F32ToBf16Bits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  if ((bits & 0x7fffffffu) > 0x7f800000u) {
    // NaN: keep the sign + high payload and force the quiet bit so the
    // truncated mantissa cannot read as Inf.
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);
  }
  // Round-to-nearest-even on the dropped 16 bits.
  return static_cast<uint16_t>(
      (bits + (0x7fffu + ((bits >> 16) & 1u))) >> 16);
}

float Bf16BitsToF32(uint16_t bits) {
  const uint32_t wide = static_cast<uint32_t>(bits) << 16;
  float value;
  std::memcpy(&value, &wide, sizeof(value));
  return value;
}

void F32ToBf16Scalar(int64_t n, const float* x, uint16_t* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = F32ToBf16Bits(x[i]);
}

void Bf16ToF32Scalar(int64_t n, const uint16_t* x, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = Bf16BitsToF32(x[i]);
}

void GemmBf16Scalar(int64_t m, int64_t k, int64_t n, const float* a,
                    const uint16_t* b, float* c) {
  std::memset(c, 0, static_cast<size_t>(m) * n * sizeof(float));
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a_row[p];
      const uint16_t* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += a_val * Bf16BitsToF32(b_row[j]);
      }
    }
  }
}

}  // namespace

#pragma GCC pop_options

namespace {

constexpr KernelTable kScalarTable = {
    GemmScalar,       GemmTransBAccumScalar, GemmTransAAccumScalar,
    AxpyScalar,       ScaleScalar,           AddScalar,
    SumScalar,        SquaredNormScalar,     DotScalar,
    BiasIdentityScalar, BiasReluScalar,      CrossEpilogueScalar,
    QuantizeU8Scalar, DequantRowS8Scalar,    GemmS8Scalar,
    F32ToBf16Scalar,  Bf16ToF32Scalar,       GemmBf16Scalar,
};

}  // namespace

// ---------------------------------------------------------------------------
// Packing helpers for gemm_s8 (setup-time, backend-independent).
// ---------------------------------------------------------------------------

int64_t RoundUpK4(int64_t k) { return (k + 3) & ~int64_t{3}; }

void PackInt8B(int64_t k, int64_t n, const int8_t* b, int8_t* packed) {
  const int64_t quads = RoundUpK4(k) / 4;
  for (int64_t qd = 0; qd < quads; ++qd) {
    for (int64_t j = 0; j < n; ++j) {
      int8_t* dst = packed + (qd * n + j) * 4;
      for (int64_t t = 0; t < 4; ++t) {
        const int64_t p = qd * 4 + t;
        dst[t] = p < k ? b[p * n + j] : int8_t{0};
      }
    }
  }
}

void Int8ColumnSums(int64_t k, int64_t n, const int8_t* b, int32_t* colsum) {
  for (int64_t j = 0; j < n; ++j) colsum[j] = 0;
  for (int64_t p = 0; p < k; ++p) {
    const int8_t* b_row = b + p * n;
    for (int64_t j = 0; j < n; ++j) colsum[j] += b_row[j];
  }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels. Compiled with per-function target attributes so the
// translation unit builds on any x86 host; the dispatcher only installs the
// table when CPUID reports avx2+fma. Unaligned loads throughout: tensors
// are 32-byte aligned at allocation, but views (row_ptr on odd widths) may
// not be, and loadu on aligned addresses has no penalty on AVX2 hardware.
// ---------------------------------------------------------------------------

#if ATNN_X86

namespace {

#define ATNN_AVX2 __attribute__((target("avx2,fma")))

ATNN_AVX2 inline float HSum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x1));
  return _mm_cvtss_f32(lo);
}

ATNN_AVX2 inline double HSum256d(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  lo = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
  return _mm_cvtsd_f64(lo);
}

/// One row of C = A*B over the columns the 16- and 8-wide register tiles
/// cover (the first n - n % 8).
ATNN_AVX2 void GemmAvx2Row(int64_t k, int64_t n, const float* a_row,
                           const float* b, float* c_row) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
      const __m256 av = _mm256_set1_ps(a_row[p]);
      const float* b_row = b + p * n + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + 8), acc1);
    }
    _mm256_storeu_ps(c_row + j, acc0);
    _mm256_storeu_ps(c_row + j + 8, acc1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(a_row[p]),
                            _mm256_loadu_ps(b + p * n + j), acc);
    }
    _mm256_storeu_ps(c_row + j, acc);
  }
}

/// In-register 8x8 transpose: afterwards r[q] holds element q of the eight
/// input rows, one row per lane.
ATNN_AVX2 inline void Transpose8x8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// acc[t] += a_cols[q] * b[q, t] for q in [0, count), in order of q: the
/// next `count` links of each lane's FMA chain.
template <int kCols>
ATNN_AVX2 inline void AccumulateNarrow(const __m256 a_cols[8], int64_t count,
                                       int64_t n, const float* b_rows,
                                       __m256 acc[kCols]) {
  for (int64_t q = 0; q < count; ++q) {
    for (int t = 0; t < kCols; ++t) {
      acc[t] = _mm256_fmadd_ps(a_cols[q], _mm256_set1_ps(b_rows[q * n + t]),
                               acc[t]);
    }
  }
}

/// kCols (< 8) narrow columns of C = A*B for 8 * kGroups consecutive rows,
/// one row per lane. Each lane runs the scalar table's FMA chain over p in
/// order from +0.0f, so the result is bitwise the scalar one. A is read in
/// 8x8 blocks of plain row loads transposed in registers; the last k % 8
/// columns of A use masked loads, so no lane reads past a row of A. `b`
/// and `c` point at the first narrow column.
template <int kCols, int kGroups>
ATNN_AVX2 void GemmNarrowRowBlock(int64_t k, int64_t n, const float* a,
                                  const float* b, float* c) {
  __m256 acc[kGroups][kCols];
  for (int g = 0; g < kGroups; ++g) {
    for (int t = 0; t < kCols; ++t) acc[g][t] = _mm256_setzero_ps();
  }
  int64_t p = 0;
  for (; p + 8 <= k; p += 8) {
    for (int g = 0; g < kGroups; ++g) {
      __m256 a_cols[8];
      for (int r = 0; r < 8; ++r) {
        a_cols[r] = _mm256_loadu_ps(a + (g * 8 + r) * k + p);
      }
      Transpose8x8(a_cols);
      AccumulateNarrow<kCols>(a_cols, 8, n, b + p * n, acc[g]);
    }
  }
  if (p < k) {
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(k - p)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    for (int g = 0; g < kGroups; ++g) {
      __m256 a_cols[8];
      for (int r = 0; r < 8; ++r) {
        a_cols[r] = _mm256_maskload_ps(a + (g * 8 + r) * k + p, mask);
      }
      Transpose8x8(a_cols);
      AccumulateNarrow<kCols>(a_cols, k - p, n, b + p * n, acc[g]);
    }
  }
  for (int g = 0; g < kGroups; ++g) {
    for (int t = 0; t < kCols; ++t) {
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, acc[g][t]);
      for (int r = 0; r < 8; ++r) c[(g * 8 + r) * n + t] = lanes[r];
    }
  }
}

/// The last kCols = n % 8 columns of C = A*B, which no register tile
/// covers. Two 8-row groups run interleaved while their accumulators fit
/// in registers, hiding the FMA chain latency; the last m % 8 rows run the
/// same chain with std::fma. `b` and `c` point at the first narrow column.
template <int kCols>
ATNN_AVX2 void GemmNarrowColumns(int64_t m, int64_t k, int64_t n,
                                 const float* a, const float* b, float* c) {
  constexpr int kGroups = kCols <= 3 ? 2 : 1;
  int64_t i = 0;
  for (; i + 8 * kGroups <= m; i += 8 * kGroups) {
    GemmNarrowRowBlock<kCols, kGroups>(k, n, a + i * k, b, c + i * n);
  }
  for (; i + 8 <= m; i += 8) {
    GemmNarrowRowBlock<kCols, 1>(k, n, a + i * k, b, c + i * n);
  }
  for (; i < m; ++i) {
    const float* a_row = a + i * k;
    for (int t = 0; t < kCols; ++t) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fma(a_row[p], b[p * n + t], acc);
      }
      c[i * n + t] = acc;
    }
  }
}

ATNN_AVX2 void GemmAvx2(int64_t m, int64_t k, int64_t n, const float* a,
                        const float* b, float* c) {
  // 4x16 register tiles: 8 accumulators + 2 B lanes + 1 broadcast = 11 of
  // the 16 ymm registers, all accumulation in-register (C written once).
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
      __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
      __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
      __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
      for (int64_t p = 0; p < k; ++p) {
        const float* b_row = b + p * n + j;
        const __m256 b0 = _mm256_loadu_ps(b_row);
        const __m256 b1 = _mm256_loadu_ps(b_row + 8);
        __m256 av = _mm256_set1_ps(a0[p]);
        acc00 = _mm256_fmadd_ps(av, b0, acc00);
        acc01 = _mm256_fmadd_ps(av, b1, acc01);
        av = _mm256_set1_ps(a1[p]);
        acc10 = _mm256_fmadd_ps(av, b0, acc10);
        acc11 = _mm256_fmadd_ps(av, b1, acc11);
        av = _mm256_set1_ps(a2[p]);
        acc20 = _mm256_fmadd_ps(av, b0, acc20);
        acc21 = _mm256_fmadd_ps(av, b1, acc21);
        av = _mm256_set1_ps(a3[p]);
        acc30 = _mm256_fmadd_ps(av, b0, acc30);
        acc31 = _mm256_fmadd_ps(av, b1, acc31);
      }
      _mm256_storeu_ps(c0 + j, acc00);
      _mm256_storeu_ps(c0 + j + 8, acc01);
      _mm256_storeu_ps(c1 + j, acc10);
      _mm256_storeu_ps(c1 + j + 8, acc11);
      _mm256_storeu_ps(c2 + j, acc20);
      _mm256_storeu_ps(c2 + j + 8, acc21);
      _mm256_storeu_ps(c3 + j, acc30);
      _mm256_storeu_ps(c3 + j + 8, acc31);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
      for (int64_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * n + j);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[p]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[p]), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[p]), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[p]), bv, acc3);
      }
      _mm256_storeu_ps(c0 + j, acc0);
      _mm256_storeu_ps(c1 + j, acc1);
      _mm256_storeu_ps(c2 + j, acc2);
      _mm256_storeu_ps(c3 + j, acc3);
    }
  }
  for (; i < m; ++i) GemmAvx2Row(k, n, a + i * k, b, c + i * n);
  const int64_t wide = n - n % 8;
  switch (n % 8) {
    case 1: GemmNarrowColumns<1>(m, k, n, a, b + wide, c + wide); break;
    case 2: GemmNarrowColumns<2>(m, k, n, a, b + wide, c + wide); break;
    case 3: GemmNarrowColumns<3>(m, k, n, a, b + wide, c + wide); break;
    case 4: GemmNarrowColumns<4>(m, k, n, a, b + wide, c + wide); break;
    case 5: GemmNarrowColumns<5>(m, k, n, a, b + wide, c + wide); break;
    case 6: GemmNarrowColumns<6>(m, k, n, a, b + wide, c + wide); break;
    case 7: GemmNarrowColumns<7>(m, k, n, a, b + wide, c + wide); break;
    default: break;
  }
}

ATNN_AVX2 void GemmTransBAccumAvx2(int64_t m, int64_t k, int64_t n,
                                   const float* a, const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      __m256 acc = _mm256_setzero_ps();
      int64_t p = 0;
      for (; p + 8 <= k; p += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a_row + p),
                              _mm256_loadu_ps(b_row + p), acc);
      }
      float total = HSum256(acc);
      for (; p < k; ++p) total += a_row[p] * b_row[p];
      c_row[j] += total;
    }
  }
}

ATNN_AVX2 void GemmTransAAccumAvx2(int64_t m, int64_t k, int64_t n,
                                   const float* a, const float* b, float* c) {
  // Same zero-skip semantics as the scalar kernel (A is typically a sparse
  // ReLU activation or a one-hot-ish gradient).
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    const float* b_row = b + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a_row[p];
      if (a_val == 0.0f) continue;
      float* c_row = c + p * n;
      const __m256 av = _mm256_set1_ps(a_val);
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        const __m256 updated = _mm256_fmadd_ps(
            av, _mm256_loadu_ps(b_row + j), _mm256_loadu_ps(c_row + j));
        _mm256_storeu_ps(c_row + j, updated);
      }
      for (; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

ATNN_AVX2 void AxpyAvx2(int64_t n, float alpha, const float* x, float* y) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i,
        _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

ATNN_AVX2 void ScaleAvx2(int64_t n, float alpha, float* x) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(av, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

ATNN_AVX2 void AddAvx2(int64_t n, const float* x, float* y) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

ATNN_AVX2 double SumAvx2(int64_t n, const float* x) {
  // Double-precision accumulation like the scalar reference; two 4-wide
  // double lanes, so results agree with scalar to ~1 ulp of the float data
  // (not bitwise — lane order differs).
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm_loadu_ps(x + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4)));
  }
  double total = HSum256d(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) total += x[i];
  return total;
}

ATNN_AVX2 double SquaredNormAvx2(int64_t n, const float* x) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d d1 = _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double total = HSum256d(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) total += static_cast<double>(x[i]) * x[i];
  return total;
}

ATNN_AVX2 float DotAvx2(int64_t n, const float* x, const float* y) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                          acc);
  }
  float total = HSum256(acc);
  for (; i < n; ++i) total += x[i] * y[i];
  return total;
}

ATNN_AVX2 void BiasIdentityAvx2(int64_t rows, int64_t cols, const float* bias,
                                float* x) {
  for (int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(row + c, _mm256_add_ps(_mm256_loadu_ps(row + c),
                                              _mm256_loadu_ps(bias + c)));
    }
    for (; c < cols; ++c) row[c] += bias[c];
  }
}

ATNN_AVX2 void BiasReluAvx2(int64_t rows, int64_t cols, const float* bias,
                            float* x) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m256 v = _mm256_add_ps(_mm256_loadu_ps(row + c),
                                     _mm256_loadu_ps(bias + c));
      // max(0, v) (not max(v, 0)): maxps returns the SECOND operand when
      // either input is NaN, so this order propagates NaN like std::max.
      _mm256_storeu_ps(row + c, _mm256_max_ps(zero, v));
    }
    for (; c < cols; ++c) row[c] = std::max(row[c] + bias[c], 0.0f);
  }
}

// GCC contracts _mm256_add_ps(_mm256_mul_ps(...), ...) into an FMA too;
// the epilogue must keep the scalar family's three roundings.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

ATNN_AVX2 void CrossEpilogueAvx2(int64_t rows, int64_t cols, const float* x0,
                                 const float* s, const float* bias,
                                 const float* xl, float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float factor = s[r];
    const __m256 fv = _mm256_set1_ps(factor);
    const float* x0_row = x0 + r * cols;
    const float* xl_row = xl + r * cols;
    float* out_row = out + r * cols;
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x0_row + c), fv);
      v = _mm256_add_ps(v, _mm256_loadu_ps(bias + c));
      _mm256_storeu_ps(out_row + c,
                       _mm256_add_ps(v, _mm256_loadu_ps(xl_row + c)));
    }
    for (; c < cols; ++c) {
      float v = x0_row[c] * factor;
      v += bias[c];
      out_row[c] = v + xl_row[c];
    }
  }
}

#pragma GCC pop_options

ATNN_AVX2 void QuantizeU8Avx2(int64_t n, float inv_scale, const float* x,
                              uint8_t* q) {
  const __m256 scale = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-64.0f);
  const __m256 hi = _mm256_set1_ps(63.0f);
  const __m256i zp = _mm256_set1_epi32(64);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i), scale);
    // max first: maxps returns the second operand on NaN, mapping NaN to
    // -64 (code 0) exactly like the scalar reference.
    v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
    // cvtps_epi32 rounds to nearest-even under the default MXCSR mode —
    // the same rounding nearbyintf uses.
    const __m256i code = _mm256_add_epi32(_mm256_cvtps_epi32(v), zp);
    const __m128i lo128 = _mm256_castsi256_si128(code);
    const __m128i hi128 = _mm256_extracti128_si256(code, 1);
    const __m128i packed16 = _mm_packus_epi32(lo128, hi128);
    const __m128i packed8 = _mm_packus_epi16(packed16, packed16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i), packed8);
  }
  for (; i < n; ++i) {
    float v = x[i] * inv_scale;
    if (!(v >= -64.0f)) v = -64.0f;
    if (v > 63.0f) v = 63.0f;
    q[i] = static_cast<uint8_t>(static_cast<int>(std::nearbyintf(v)) + 64);
  }
}

ATNN_AVX2 void DequantRowS8Avx2(int64_t n, float scale, const int8_t* q,
                                float* out) {
  const __m256 sv = _mm256_set1_ps(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i));
    const __m256 widened =
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(widened, sv));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(q[i]) * scale;
}

ATNN_AVX2 void GemmS8Avx2(int64_t m, int64_t k, int64_t n, const uint8_t* a,
                          const int8_t* b_packed, const int32_t* b_colsum,
                          const float* b_scales, float act_scale, float* c) {
  const int64_t quads = k / 4;
  const __m256i ones16 = _mm256_set1_epi16(1);
  const __m256 act = _mm256_set1_ps(act_scale);
  for (int64_t r = 0; r < m; ++r) {
    const uint8_t* a_row = a + r * k;
    float* c_row = c + r * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256i acc = _mm256_setzero_si256();
      for (int64_t qd = 0; qd < quads; ++qd) {
        int32_t quad;
        std::memcpy(&quad, a_row + qd * 4, sizeof(quad));
        const __m256i av = _mm256_set1_epi32(quad);
        const __m256i bv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b_packed + (qd * n + j) * 4));
        // u8 x s8 pair products; 7-bit codes keep the i16 sums exact.
        const __m256i pairs = _mm256_maddubs_epi16(av, bv);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones16));
      }
      const __m256i col = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b_colsum + j));
      const __m256i corrected =
          _mm256_sub_epi32(acc, _mm256_slli_epi32(col, 6));
      // Same two single-rounded multiplies as the scalar epilogue.
      const __m256 combined =
          _mm256_mul_ps(act, _mm256_loadu_ps(b_scales + j));
      _mm256_storeu_ps(
          c_row + j,
          _mm256_mul_ps(_mm256_cvtepi32_ps(corrected), combined));
    }
    for (; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t qd = 0; qd < quads; ++qd) {
        const uint8_t* aq = a_row + qd * 4;
        const int8_t* bq = b_packed + (qd * n + j) * 4;
        acc += static_cast<int32_t>(aq[0]) * bq[0] +
               static_cast<int32_t>(aq[1]) * bq[1] +
               static_cast<int32_t>(aq[2]) * bq[2] +
               static_cast<int32_t>(aq[3]) * bq[3];
      }
      const int32_t corrected = acc - 64 * b_colsum[j];
      const float combined = act_scale * b_scales[j];
      c_row[j] = static_cast<float>(corrected) * combined;
    }
  }
}

/// Eight f32 -> eight bf16 codes (kept in i32 lanes for the caller to
/// pack): round-to-nearest-even with NaN quieting, the vector twin of
/// F32ToBf16Bits.
ATNN_AVX2 inline __m256i F32ToBf16x8(const float* src) {
  const __m256i bits =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
  const __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(bits, 16),
                                       _mm256_set1_epi32(1));
  const __m256i rounded = _mm256_srli_epi32(
      _mm256_add_epi32(bits, _mm256_add_epi32(_mm256_set1_epi32(0x7fff),
                                              lsb)),
      16);
  const __m256i nan_path = _mm256_or_si256(_mm256_srli_epi32(bits, 16),
                                           _mm256_set1_epi32(0x0040));
  const __m256i is_nan = _mm256_cmpgt_epi32(
      _mm256_and_si256(bits, _mm256_set1_epi32(0x7fffffff)),
      _mm256_set1_epi32(0x7f800000));
  return _mm256_blendv_epi8(rounded, nan_path, is_nan);
}

ATNN_AVX2 void F32ToBf16Avx2(int64_t n, const float* x, uint16_t* out) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i lo = F32ToBf16x8(x + i);
    const __m256i hi = F32ToBf16x8(x + i + 8);
    // packus interleaves 128-bit lanes; permute restores element order.
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packus_epi32(lo, hi), _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), packed);
  }
  for (; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, x + i, sizeof(bits));
    if ((bits & 0x7fffffffu) > 0x7f800000u) {
      out[i] = static_cast<uint16_t>((bits >> 16) | 0x0040u);
    } else {
      out[i] = static_cast<uint16_t>(
          (bits + (0x7fffu + ((bits >> 16) & 1u))) >> 16);
    }
  }
}

ATNN_AVX2 inline __m256 LoadBf16x8(const uint16_t* src) {
  const __m128i half =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
  return _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_cvtepu16_epi32(half), 16));
}

ATNN_AVX2 void Bf16ToF32Avx2(int64_t n, const uint16_t* x, float* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, LoadBf16x8(x + i));
  }
  for (; i < n; ++i) {
    const uint32_t wide = static_cast<uint32_t>(x[i]) << 16;
    float value;
    std::memcpy(&value, &wide, sizeof(value));
    out[i] = value;
  }
}

ATNN_AVX2 void GemmBf16Avx2(int64_t m, int64_t k, int64_t n, const float* a,
                            const uint16_t* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (int64_t p = 0; p < k; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(a_row[p]),
                              LoadBf16x8(b + p * n + j), acc);
      }
      _mm256_storeu_ps(c_row + j, acc);
    }
    for (; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const uint32_t wide = static_cast<uint32_t>(b[p * n + j]) << 16;
        float widened;
        std::memcpy(&widened, &wide, sizeof(widened));
        acc += a_row[p] * widened;
      }
      c_row[j] = acc;
    }
  }
}

#undef ATNN_AVX2

constexpr KernelTable kAvx2Table = {
    GemmAvx2,       GemmTransBAccumAvx2, GemmTransAAccumAvx2,
    AxpyAvx2,       ScaleAvx2,           AddAvx2,
    SumAvx2,        SquaredNormAvx2,     DotAvx2,
    BiasIdentityAvx2, BiasReluAvx2,      CrossEpilogueAvx2,
    QuantizeU8Avx2, DequantRowS8Avx2,    GemmS8Avx2,
    F32ToBf16Avx2,  Bf16ToF32Avx2,       GemmBf16Avx2,
};

}  // namespace

#endif  // ATNN_X86

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

bool Avx2Supported() {
#if ATNN_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

namespace {

struct Dispatch {
  const KernelTable* table;
  Backend backend;
  Dispatch() {
#if ATNN_X86
    if (Avx2Supported()) {
      table = &kAvx2Table;
      backend = Backend::kAvx2;
      return;
    }
#endif
    table = &kScalarTable;
    backend = Backend::kScalar;
  }
};

Dispatch& GetDispatch() {
  static Dispatch dispatch;  // thread-safe one-time CPUID probe
  return dispatch;
}

}  // namespace

const KernelTable& Kernels() { return *GetDispatch().table; }

Backend ActiveBackend() { return GetDispatch().backend; }

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelTable& Table(Backend backend) {
  if (backend == Backend::kScalar) return kScalarTable;
#if ATNN_X86
  ATNN_CHECK(Avx2Supported()) << "avx2 kernel table on a non-AVX2 host";
  return kAvx2Table;
#else
  ATNN_CHECK(false) << "avx2 kernel table on a non-x86 host";
  return kScalarTable;
#endif
}

Status SetBackend(Backend backend) {
  if (backend == Backend::kAvx2 && !Avx2Supported()) {
    return Status::InvalidArgument(
        "--atnn_kernel=avx2 requested but the CPU lacks AVX2/FMA");
  }
  Dispatch& dispatch = GetDispatch();
  dispatch.table = &Table(backend);
  dispatch.backend = backend;
  return Status::OK();
}

Status SetBackendFromString(const std::string& name) {
  if (name == "auto") {
    return SetBackend(Avx2Supported() ? Backend::kAvx2 : Backend::kScalar);
  }
  if (name == "scalar") return SetBackend(Backend::kScalar);
  if (name == "avx2") return SetBackend(Backend::kAvx2);
  return Status::InvalidArgument("unknown kernel backend '" + name +
                                 "' (want auto|scalar|avx2)");
}

}  // namespace atnn::nn::kernels
