// Kernel & memory layer benchmark: the two promises of the SIMD/arena PR,
// measured and gated.
//
//   (a) SPEED — the AVX2+FMA GEMM must beat the pinned-scalar reference by
//       >= 1.5x at n >= 64 (the tower widths that dominate training time).
//       Skipped with a log line on hosts without AVX2+FMA; report-only
//       under sanitizers (instrumentation distorts the ratio).
//   (b) ALLOCATION-FREE STEADY STATE — after warm-up, a full ATNN training
//       step (D + G half-steps, Adam updates, gradient clipping) and a
//       batched no-grad inference forward must perform ZERO heap
//       allocations: global operator new/delete are replaced with counting
//       versions and the gate is an exact == 0. Report-only under
//       sanitizers (their runtimes own the allocator).
//
// That arena-backed training computes the same bits as heap tensors is a
// test (ArenaScopeTest in tests/nn/arena_test.cc), as is the fused dense
// epilogue against its unfused composition (FusedDenseAffineTest).
//
// Emits BENCH_kernels.json next to the working directory for dashboards.
//
//   $ ./build/bench/bench_kernels            # full sizes, hard gates
//   $ ./build/bench/bench_kernels --smoke    # CI sanitizer budget

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "nn/arena.h"
#include "nn/autograd.h"
#include "nn/kernels.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

// ---------------------------------------------------------------------------
// Counting global allocator. Every operator new (array/aligned/nothrow
// variants included) bumps one atomic; the steady-state gates snapshot it
// around a window of steps and require the delta to be exactly zero.
// ---------------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* ptr = alignment > alignof(std::max_align_t)
                  ? std::aligned_alloc(alignment,
                                       (size + alignment - 1) / alignment *
                                           alignment)
                  : std::malloc(size);
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = CountedAlloc(size, 0);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = CountedAlloc(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace atnn::bench {
namespace {

uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

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

struct JsonWriter {
  std::string body;
  void Add(const std::string& key, double value) {
    body += (body.empty() ? "" : ",\n") + std::string("  \"") + key +
            "\": " + std::to_string(value);
  }
  bool Flush(const std::string& path) {
    std::ofstream out(path, std::ios::trunc);
    out << "{\n" << body << "\n}\n";
    return out.good();
  }
};

int Run(bool smoke) {
  using nn::kernels::Backend;
  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS:" : "FAIL:", what);
    if (!ok) ++failures;
  };
  JsonWriter json;
  const bool avx2 = nn::kernels::Avx2Supported();
  std::printf("kernel bench: host %s AVX2+FMA, %s%s\n\n",
              avx2 ? "has" : "lacks",
              kSanitized ? "sanitized build" : "plain build",
              smoke ? ", smoke budget" : "");

  // --- (a) GEMM: scalar vs AVX2 ---
  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{64, 128} : std::vector<int64_t>{64, 128,
                                                                   256};
  TablePrinter gemm_table("GEMM: pinned-scalar reference vs AVX2+FMA");
  gemm_table.SetHeader({"n", "scalar GF/s", "avx2 GF/s", "speedup"});
  double min_speedup = 1e300;
  for (int64_t n : sizes) {
    const nn::Tensor a = RandomSquare(n, 1000 + static_cast<uint64_t>(n));
    const nn::Tensor b = RandomSquare(n, 2000 + static_cast<uint64_t>(n));
    nn::Tensor c(n, n);
    const int iters = smoke ? 20 : (n >= 256 ? 40 : 200);
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

  if (!avx2) {
    std::printf("SKIP: AVX2 >= 1.5x scalar GEMM gate (host lacks AVX2+FMA)\n");
  } else if (kSanitized) {
    std::printf("%s AVX2 GEMM speedup %.2fx (report-only: sanitized "
                "build)\n",
                min_speedup >= 1.5 ? "PASS:" : "WARN:", min_speedup);
  } else {
    std::printf("AVX2 GEMM min speedup over scalar: %.2fx\n", min_speedup);
    gate(min_speedup >= 1.5, "AVX2 GEMM >= 1.5x scalar at n >= 64");
  }

  // Fused epilogues: report-only throughput comparison.
  if (avx2) {
    const int64_t rows = 256, cols = 256;
    nn::Tensor x = RandomSquare(rows, 3000);
    nn::Tensor bias_row(1, cols);
    for (int64_t i = 0; i < cols; ++i) bias_row.data()[i] = 0.01f;
    const int iters = smoke ? 50 : 500;
    const double scalar_s = TimeEpilogue(
        nn::kernels::Table(Backend::kScalar).bias_relu, bias_row, &x, iters);
    const double avx2_s = TimeEpilogue(
        nn::kernels::Table(Backend::kAvx2).bias_relu, bias_row, &x, iters);
    std::printf("bias+relu epilogue [256x256]: scalar %.1f GB/s, avx2 %.1f "
                "GB/s (%.2fx)\n\n",
                rows * cols * 4.0 / scalar_s / 1e9,
                rows * cols * 4.0 / avx2_s / 1e9, scalar_s / avx2_s);
    json.Add("bias_relu_speedup_256", scalar_s / avx2_s);
  }

  // --- shared world for the end-to-end gates ---
  data::TmallConfig world = PaperScaleTmallConfig();
  world.num_users = 300;
  world.num_items = 600;
  world.num_new_items = 200;
  world.num_interactions = smoke ? 10000 : 20000;
  data::TmallDataset dataset = data::GenerateTmallDataset(world);
  core::NormalizeTmallInPlace(&dataset);

  core::AtnnConfig model_config;
  model_config.tower = BenchTowerConfig(nn::TowerKind::kDeepCross);
  model_config.seed = 7;

  // --- (b) zero-allocation steady state ---
  {
    core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                          *dataset.item_stats_schema, model_config);
    nn::Adam optimizer_d(model.DiscriminatorParameters(), 2e-3f);
    nn::Adam optimizer_g(model.GeneratorParameters(), 2e-3f);
    const std::vector<nn::Parameter*> all_params = model.Parameters();
    const std::vector<int64_t> batch_rows(dataset.train_indices.begin(),
                                          dataset.train_indices.begin() + 256);
    // The batch is fixed: batch ASSEMBLY allocates by design (prefetcher
    // threads hand over fresh tensors); the gate covers the compute step.
    const data::CtrBatch batch = data::MakeCtrBatch(dataset, batch_rows);

    const auto train_step = [&] {
      const nn::ArenaScope arena_scope;
      nn::ZeroAllGrads(all_params);
      nn::Var user_vec = model.UserVector(batch.user);
      nn::Var enc_vec =
          model.EncoderItemVector(batch.item_profile, batch.item_stats);
      nn::Var loss_i = nn::SigmoidBceLossWithLogits(
          model.EncoderLogits(enc_vec, user_vec), batch.labels);
      nn::Backward(loss_i);
      optimizer_d.ClipGradNorm(5.0);
      optimizer_d.Step();

      nn::ZeroAllGrads(all_params);
      nn::Var user_vec_g = model.UserVector(batch.user);
      nn::Var enc_vec_g =
          model.EncoderItemVector(batch.item_profile, batch.item_stats);
      nn::Var gen_vec = model.GeneratorItemVector(batch.item_profile);
      nn::Var loss_g = nn::SigmoidBceLossWithLogits(
          model.GeneratorLogits(gen_vec, user_vec_g), batch.labels);
      nn::Var loss_s = model.SimilarityLoss(gen_vec, enc_vec_g);
      nn::Backward(nn::Add(loss_g, nn::Scale(loss_s, 0.1f)));
      optimizer_g.ClipGradNorm(5.0);
      optimizer_g.Step();
    };
    const auto inference_forward = [&] {
      const nn::NoGradGuard no_grad;
      const nn::ArenaScope arena_scope;
      const nn::Var user_vec = model.UserVector(batch.user);
      const nn::Var gen_vec = model.GeneratorItemVector(batch.item_profile);
      const nn::Var logits = model.GeneratorLogits(gen_vec, user_vec);
      return static_cast<double>(logits.value().at(0, 0));
    };

    // Warm-up: Adam state, arena blocks, touched_rows capacity, Backward's
    // thread-local traversal buffers all reach steady state.
    for (int i = 0; i < 5; ++i) train_step();
    const uint64_t before_train = AllocCount();
    for (int i = 0; i < 5; ++i) train_step();
    const uint64_t train_allocs = AllocCount() - before_train;

    double sink = 0.0;
    for (int i = 0; i < 5; ++i) sink += inference_forward();
    const uint64_t before_infer = AllocCount();
    for (int i = 0; i < 5; ++i) sink += inference_forward();
    const uint64_t infer_allocs = AllocCount() - before_infer;

    std::printf("steady state over 5 steps: %llu train-step allocations, "
                "%llu inference-forward allocations (sink %.3f)\n",
                static_cast<unsigned long long>(train_allocs),
                static_cast<unsigned long long>(infer_allocs), sink);
    std::printf("arena high-water mark: %.1f KiB in use, %.1f KiB "
                "reserved\n",
                nn::ThreadArena().HighWaterMark() / 1024.0,
                nn::ThreadArena().BytesReserved() / 1024.0);
    json.Add("train_step_steady_allocs", static_cast<double>(train_allocs));
    json.Add("inference_forward_steady_allocs",
             static_cast<double>(infer_allocs));
    json.Add("arena_high_water_bytes",
             static_cast<double>(nn::ThreadArena().HighWaterMark()));

    if (kSanitized) {
      std::printf("%s zero steady-state allocations (report-only: "
                  "sanitizer runtime owns the allocator)\n",
                  train_allocs == 0 && infer_allocs == 0 ? "PASS:" : "WARN:");
    } else {
      gate(train_allocs == 0,
           "training step performs 0 heap allocations after warm-up");
      gate(infer_allocs == 0,
           "batched inference forward performs 0 heap allocations after "
           "warm-up");
    }
  }

  if (!json.Flush("BENCH_kernels.json")) {
    std::fprintf(stderr, "warning: could not write BENCH_kernels.json\n");
  } else {
    std::printf("wrote BENCH_kernels.json\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace atnn::bench

int main(int argc, char** argv) {
  atnn::FlagParser flags("Kernel & memory layer benchmark");
  flags.AddBool("smoke", false,
                "smaller sizes/iterations for CI sanitizer jobs");
  const atnn::Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  return atnn::bench::Run(flags.GetBool("smoke"));
}
