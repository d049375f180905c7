// Kernel layer benchmark: the AVX2+FMA GEMM must beat the pinned-scalar
// reference by >= 1.5x at n >= 64 (the tower widths that dominate training
// time). Skipped with a log line on hosts without AVX2+FMA. The fused
// bias+relu epilogue's throughput is reported, not gated.
//
// What the kernel and memory layer promises beyond speed are tests:
// AVX2-vs-scalar equality in kernels_test, arena-backed training equal to
// heap tensors and zero heap allocations per warmed ATNN training step and
// batched inference forward in arena_test (ArenaScopeTest), and the fused
// dense epilogue against its unfused composition (FusedDenseAffineTest).
//
// Emits BENCH_kernels.json next to the working directory for dashboards.
//
//   $ ./build/bench/bench_kernels

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "nn/kernels.h"
#include "nn/tensor.h"
#include "perf_common.h"

namespace atnn::bench {
namespace {

nn::Tensor RandomSquare(int64_t n, uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t(n, n);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return t;
}

/// Median-of-repeats seconds for one gemm call on n x n operands.
double TimeGemm(const nn::kernels::KernelTable& table, const nn::Tensor& a,
                const nn::Tensor& b, nn::Tensor* c, int iters) {
  const int64_t n = a.rows();
  table.gemm(n, n, n, a.data(), b.data(), c->data());  // warm caches
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch timer;
    for (int i = 0; i < iters; ++i) {
      table.gemm(n, n, n, a.data(), b.data(), c->data());
    }
    best = std::min(best, timer.ElapsedSeconds() / iters);
  }
  return best;
}

double TimeEpilogue(void (*epilogue)(int64_t, int64_t, const float*, float*),
                    const nn::Tensor& bias, nn::Tensor* x, int iters) {
  epilogue(x->rows(), x->cols(), bias.data(), x->data());
  Stopwatch timer;
  for (int i = 0; i < iters; ++i) {
    epilogue(x->rows(), x->cols(), bias.data(), x->data());
  }
  return timer.ElapsedSeconds() / iters;
}

int Run() {
  using nn::kernels::Backend;
  JsonWriter json;
  const bool avx2 = nn::kernels::Avx2Supported();
  std::printf("kernel bench: host %s AVX2+FMA\n\n", avx2 ? "has" : "lacks");

  // --- GEMM: scalar vs AVX2 ---
  TablePrinter gemm_table("GEMM: pinned-scalar reference vs AVX2+FMA");
  gemm_table.SetHeader({"n", "scalar GF/s", "avx2 GF/s", "speedup"});
  double min_speedup = 1e300;
  for (const int64_t n : {int64_t{64}, int64_t{128}, int64_t{256}}) {
    const nn::Tensor a = RandomSquare(n, 1000 + static_cast<uint64_t>(n));
    const nn::Tensor b = RandomSquare(n, 2000 + static_cast<uint64_t>(n));
    nn::Tensor c(n, n);
    const int iters = n >= 256 ? 40 : 200;
    const double flops = 2.0 * n * n * n;
    const double scalar_s =
        TimeGemm(nn::kernels::Table(Backend::kScalar), a, b, &c, iters);
    double avx2_s = 0.0;
    double speedup = 0.0;
    if (avx2) {
      avx2_s = TimeGemm(nn::kernels::Table(Backend::kAvx2), a, b, &c, iters);
      speedup = scalar_s / avx2_s;
      min_speedup = std::min(min_speedup, speedup);
    }
    gemm_table.AddRow(
        {std::to_string(n), TablePrinter::Num(flops / scalar_s / 1e9, 2),
         avx2 ? TablePrinter::Num(flops / avx2_s / 1e9, 2) : "n/a",
         avx2 ? TablePrinter::Num(speedup, 2) : "n/a"});
    json.Add("gemm_scalar_gflops_n" + std::to_string(n),
             flops / scalar_s / 1e9);
    if (avx2) {
      json.Add("gemm_avx2_gflops_n" + std::to_string(n),
               flops / avx2_s / 1e9);
      json.Add("gemm_speedup_n" + std::to_string(n), speedup);
    }
  }
  gemm_table.Print();
  std::printf("\n");

  Gates gates;
  if (!avx2) {
    std::printf("SKIP: AVX2 >= 1.5x scalar GEMM gate (host lacks AVX2+FMA)\n");
  } else {
    std::printf("AVX2 GEMM min speedup over scalar: %.2fx\n", min_speedup);
    gates.Check(min_speedup >= 1.5, "AVX2 GEMM >= 1.5x scalar at n >= 64");

    // Fused epilogue throughput, reported only.
    const int64_t rows = 256, cols = 256;
    nn::Tensor x = RandomSquare(rows, 3000);
    nn::Tensor bias_row(1, cols);
    for (int64_t i = 0; i < cols; ++i) bias_row.data()[i] = 0.01f;
    constexpr int kIters = 500;
    const double scalar_s = TimeEpilogue(
        nn::kernels::Table(Backend::kScalar).bias_relu, bias_row, &x, kIters);
    const double avx2_s = TimeEpilogue(
        nn::kernels::Table(Backend::kAvx2).bias_relu, bias_row, &x, kIters);
    std::printf("bias+relu epilogue [256x256]: scalar %.1f GB/s, avx2 %.1f "
                "GB/s (%.2fx)\n\n",
                rows * cols * 4.0 / scalar_s / 1e9,
                rows * cols * 4.0 / avx2_s / 1e9, scalar_s / avx2_s);
    json.Add("bias_relu_speedup_256", scalar_s / avx2_s);
  }

  if (!json.Flush("BENCH_kernels.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_kernels.json\n");
  } else {
    std::printf("wrote BENCH_kernels.json\n");
  }
  return gates.exit_code();
}

}  // namespace
}  // namespace atnn::bench

int main() { return atnn::bench::Run(); }
