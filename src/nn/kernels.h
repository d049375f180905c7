#ifndef ATNN_NN_KERNELS_H_
#define ATNN_NN_KERNELS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace atnn::nn::kernels {

/// Which implementation family the dispatch table points at.
///   kScalar — portable reference loops, compiled without auto-vectorization
///             so the family really is scalar (and deterministic across
///             compilers/hosts). This path reproduces the original
///             hand-written loops bit for bit.
///   kAvx2   — AVX2+FMA intrinsics; requires runtime CPU support.
enum class Backend { kScalar, kAvx2 };

/// Function-pointer table for the hot numeric primitives. All matrices are
/// dense row-major with no padding (leading dimension == column count).
/// Pointers may be unaligned; kernels use unaligned loads, which cost
/// nothing on aligned data with modern x86. No pointer may alias except
/// where noted in the member comment.
struct KernelTable {
  /// C = A * B. A [m,k], B [k,n], C [m,n]; C is overwritten. Every element
  /// is one FMA chain over p in order, starting from +0.0f, on both
  /// backends (the scalar loop's c += a*b contracts to an FMA under the
  /// build's -march=native on any host that can run the AVX2 table), so
  /// the tables agree bitwise for every shape.
  void (*gemm)(int64_t m, int64_t k, int64_t n, const float* a,
               const float* b, float* c);
  /// C += A * B^T. A [m,k], B [n,k], C [m,n]. (dX = dY * W^T.)
  void (*gemm_trans_b_accum)(int64_t m, int64_t k, int64_t n, const float* a,
                             const float* b, float* c);
  /// C += A^T * B. A [m,k], B [m,n], C [k,n]. (dW = X^T * dY.) Skips zero
  /// entries of A — profitable because ReLU activations are sparse.
  void (*gemm_trans_a_accum)(int64_t m, int64_t k, int64_t n, const float* a,
                             const float* b, float* c);
  /// y += alpha * x.
  void (*axpy)(int64_t n, float alpha, const float* x, float* y);
  /// x *= alpha.
  void (*scale)(int64_t n, float alpha, float* x);
  /// y += x.
  void (*add)(int64_t n, const float* x, float* y);
  /// Sum of elements, accumulated in double (matches the serial reference).
  double (*sum)(int64_t n, const float* x);
  /// Sum of squares, accumulated in double.
  double (*squared_norm)(int64_t n, const float* x);
  /// Single-precision dot product.
  float (*dot)(int64_t n, const float* x, const float* y);
  /// Fused GEMM epilogues: for each row r, x[r,c] = f(x[r,c] + bias[c]).
  void (*bias_identity)(int64_t rows, int64_t cols, const float* bias,
                        float* x);
  void (*bias_relu)(int64_t rows, int64_t cols, const float* bias, float* x);
  /// Deep & Cross layer epilogue over [rows, cols]:
  ///   out[r,c] = ((x0[r,c] * s[r]) + bias[c]) + xl[r,c]
  /// Three separately rounded operations (both versions are compiled
  /// without FP contraction), so the result equals the scale_rows ->
  /// bias_identity -> add composition bitwise. `out` may alias x0 or xl:
  /// each element is read before it is written.
  void (*cross_epilogue)(int64_t rows, int64_t cols, const float* x0,
                         const float* s, const float* bias, const float* xl,
                         float* out);

  // --- Low-precision kernels (quantized inference path, DESIGN.md §15) ---

  /// Quantizes x[0..n) to unsigned 7-bit codes around zero-point 64:
  /// q = clamp(rne(x * inv_scale), -64, 63) + 64, so the represented value
  /// is (q - 64) / inv_scale. 7 bits (not 8) keeps the maddubs pair sums in
  /// gemm_s8 below int16 saturation: 127*127*2 < 2^15. Out-of-range values
  /// saturate; NaN quantizes to code 0 on both backends.
  void (*quantize_u8)(int64_t n, float inv_scale, const float* x,
                      uint8_t* q);
  /// out[i] = q[i] * scale. One single-rounded multiply per element (the
  /// int8 -> f32 conversion is exact), so backends agree bitwise.
  void (*dequant_row_s8)(int64_t n, float scale, const int8_t* q,
                         float* out);
  /// Quantized GEMM with dequantizing epilogue:
  ///   C[r,c] = float(sum_p (A[r,p]-64) * B[p,c]) * (act_scale*b_scales[c])
  /// A is [m,k] u8 codes from quantize_u8; B is int8 packed by PackInt8B
  /// (quad-interleaved [k/4][n][4]); b_colsum[c] = sum_p B[p,c] folds the
  /// activation zero-point out of the integer accumulator. k must be a
  /// multiple of 4 (RoundUpK4; pad A rows with any code — the packed B is
  /// zero-padded, so padded lanes contribute nothing). The integer
  /// accumulation is exact and the epilogue is two single-rounded
  /// multiplies on both backends, so AVX2 and scalar agree bitwise.
  void (*gemm_s8)(int64_t m, int64_t k, int64_t n, const uint8_t* a,
                  const int8_t* b_packed, const int32_t* b_colsum,
                  const float* b_scales, float act_scale, float* c);
  /// f32 -> bf16 with round-to-nearest-even; NaN payloads are quieted so
  /// rounding cannot turn a NaN into Inf. Pure integer op: backends agree
  /// bitwise.
  void (*f32_to_bf16)(int64_t n, const float* x, uint16_t* out);
  /// bf16 -> f32 (exact: the 16-bit pattern becomes the high half).
  void (*bf16_to_f32)(int64_t n, const uint16_t* x, float* out);
  /// C = A * B with B stored bf16 row-major [k,n], widened on load. Same
  /// shape contract as gemm; backends agree to normal float tolerance (FMA
  /// vs mul-add chains), not bitwise.
  void (*gemm_bf16)(int64_t m, int64_t k, int64_t n, const float* a,
                    const uint16_t* b, float* c);
};

/// k rounded up to the multiple of 4 that gemm_s8 requires.
int64_t RoundUpK4(int64_t k);

/// Packs row-major int8 B [k,n] into the quad-interleaved layout gemm_s8
/// consumes: ceil(k/4) quads x n columns x 4 consecutive k-entries, zero
/// padded past k. `packed` must hold RoundUpK4(k) * n bytes. Deterministic
/// byte shuffling (no backend variants).
void PackInt8B(int64_t k, int64_t n, const int8_t* b, int8_t* packed);

/// colsum[j] = sum_p b[p,j] over row-major int8 B [k,n] — the per-column
/// zero-point correction term gemm_s8 takes.
void Int8ColumnSums(int64_t k, int64_t n, const int8_t* b, int32_t* colsum);

/// The active dispatch table. Resolved once (CPUID) on first use; every hot
/// call site goes through this so a backend switch is a pointer swap.
const KernelTable& Kernels();

/// The table for a specific backend (tests compare kAvx2 against kScalar
/// directly). CHECK-fails for kAvx2 on hosts without AVX2+FMA.
const KernelTable& Table(Backend backend);

Backend ActiveBackend();
const char* BackendName(Backend backend);

/// True when the running CPU supports AVX2 and FMA.
bool Avx2Supported();

/// Selects the dispatch table. kAvx2 on a host without AVX2+FMA is an
/// InvalidArgument error. Not thread-safe against in-flight kernel calls;
/// call during startup (flag parsing) or between bench phases.
Status SetBackend(Backend backend);

/// Parses "auto" | "scalar" | "avx2" (the --atnn_kernel flag values) and
/// calls SetBackend. "auto" picks the best supported backend.
Status SetBackendFromString(const std::string& name);

}  // namespace atnn::nn::kernels

#endif  // ATNN_NN_KERNELS_H_
