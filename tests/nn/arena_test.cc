#include "nn/arena.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../common/counting_allocator.h"
#include "../core/test_helpers.h"
#include "core/atnn.h"
#include "nn/autograd.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace atnn::nn {
namespace {

bool IsAligned(const void* ptr) {
  return reinterpret_cast<uintptr_t>(ptr) % kTensorAlignment == 0;
}

TEST(TensorArenaTest, HandsOutAlignedDistinctStorage) {
  TensorArena arena;
  float* a = arena.AllocateFloats(3);
  float* b = arena.AllocateFloats(5);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_TRUE(IsAligned(a));
  EXPECT_TRUE(IsAligned(b));
  // The hand-outs are genuinely usable (ASan would flag overlap/overflow).
  for (int i = 0; i < 3; ++i) a[i] = 1.0f;
  for (int i = 0; i < 5; ++i) b[i] = 2.0f;
  EXPECT_EQ(a[2], 1.0f);
  EXPECT_EQ(b[0], 2.0f);
}

TEST(TensorArenaTest, ZeroByteAllocationIsNonNull) {
  TensorArena arena;
  EXPECT_NE(arena.Allocate(0), nullptr);
}

TEST(TensorArenaTest, RewindReusesStorage) {
  TensorArena arena;
  const TensorArena::Mark mark = arena.Checkpoint();
  float* first = arena.AllocateFloats(64);
  const size_t in_use = arena.BytesInUse();
  arena.Rewind(mark);
  EXPECT_EQ(arena.BytesInUse(), 0u);
  // The next allocation of the same size lands on the same bytes: the
  // steady-state training loop touches the heap zero times.
  float* second = arena.AllocateFloats(64);
  EXPECT_EQ(first, second);
  EXPECT_EQ(arena.BytesInUse(), in_use);
}

TEST(TensorArenaTest, GrowsAcrossBlocksAndKeepsOldPointersValid) {
  TensorArena arena;
  std::vector<float*> chunks;
  // First block is 64 KiB; 40 x 4 KiB spills into several grown blocks.
  for (int i = 0; i < 40; ++i) {
    float* p = arena.AllocateFloats(1024);
    p[0] = static_cast<float>(i);
    p[1023] = static_cast<float>(i);
    chunks.push_back(p);
  }
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(chunks[i][0], static_cast<float>(i)) << i;
    EXPECT_EQ(chunks[i][1023], static_cast<float>(i)) << i;
  }
  EXPECT_GE(arena.BytesReserved(), arena.BytesInUse());
}

TEST(TensorArenaTest, HighWaterMarkTracksPeakNotCurrent) {
  TensorArena arena;
  const TensorArena::Mark mark = arena.Checkpoint();
  arena.AllocateFloats(256);
  const size_t peak = arena.BytesInUse();
  EXPECT_GE(arena.HighWaterMark(), peak);
  arena.Rewind(mark);
  EXPECT_EQ(arena.BytesInUse(), 0u);
  EXPECT_GE(arena.HighWaterMark(), peak);  // survives the rewind
}

TEST(TensorArenaTest, NestedCheckpointsRewindLifo) {
  TensorArena arena;
  const TensorArena::Mark outer = arena.Checkpoint();
  float* a = arena.AllocateFloats(16);
  const TensorArena::Mark inner = arena.Checkpoint();
  float* b = arena.AllocateFloats(16);
  arena.Rewind(inner);
  float* b2 = arena.AllocateFloats(16);
  EXPECT_EQ(b, b2);  // inner rewind reclaimed only the inner hand-out
  a[0] = 7.0f;
  EXPECT_EQ(a[0], 7.0f);
  arena.Rewind(outer);
  EXPECT_EQ(arena.BytesInUse(), 0u);
}

TEST(ArenaScopeTest, ActivatesArenaBackedScratchTensors) {
  ASSERT_FALSE(ArenaActive());
  {
    const ArenaScope scope;
    EXPECT_TRUE(ArenaActive());
    const Tensor t = ScratchTensor(4, 5);
    EXPECT_TRUE(t.arena_backed());
    EXPECT_TRUE(IsAligned(t.data()));
    for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
  }
  EXPECT_FALSE(ArenaActive());
}

TEST(ArenaScopeTest, ScratchFallsBackToHeapOutsideScope) {
  ASSERT_FALSE(ArenaActive());
  const Tensor t = ScratchTensor(4, 5);
  EXPECT_FALSE(t.arena_backed());  // owning; safe to outlive any scope
  const Tensor c = ScratchCopy(t);
  EXPECT_FALSE(c.arena_backed());
}

TEST(ArenaScopeTest, CopyingScratchEscapesTheScope) {
  Tensor escaped;
  {
    const ArenaScope scope;
    Tensor t = ScratchTensor(2, 3);
    t.Fill(42.0f);
    escaped = t;  // deep copy into owning storage
  }
  EXPECT_FALSE(escaped.arena_backed());
  EXPECT_EQ(escaped.at(1, 2), 42.0f);
}

TEST(ArenaScopeTest, NestedScopesRewindInOrder) {
  const ArenaScope outer;
  const size_t before = ThreadArena().BytesInUse();
  const Tensor a = ScratchTensor(8, 8);
  {
    const ArenaScope inner;
    const Tensor b = ScratchTensor(8, 8);
    EXPECT_GT(ThreadArena().BytesInUse(), before + 8 * 8 * sizeof(float));
  }
  // Inner rewind freed b but not a.
  EXPECT_GE(ThreadArena().BytesInUse(), before + 8 * 8 * sizeof(float));
  EXPECT_TRUE(a.arena_backed());
}

TEST(ArenaScopeTest, StepLoopReachesZeroSteadyStateGrowth) {
  // After the first iteration warms the arena, repeating the same graph
  // must not grow the reservation — the allocation-free steady state.
  auto run_step = [] {
    const ArenaScope scope;
    Var x = Leaf(Tensor::Full(4, 6, 0.5f));
    Var w = Leaf(Tensor::Full(6, 3, 0.25f));
    Var b = Leaf(Tensor::Full(1, 3, 0.1f));
    const Var y = DenseAffine(x, w, b, Activation::kRelu);
    const Var loss = ReduceMean(Square(y));
    Backward(loss);
    return loss.value().scalar();
  };
  const float first = run_step();
  const size_t reserved_after_warmup = ThreadArena().BytesReserved();
  const size_t high_water = ThreadArena().HighWaterMark();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(run_step(), first);  // deterministic graph, identical loss
  }
  EXPECT_EQ(ThreadArena().BytesReserved(), reserved_after_warmup);
  EXPECT_EQ(ThreadArena().HighWaterMark(), high_water);
}

/// An ATNN model and its two Adam optimizers, stepping on one fixed batch
/// the way core::RunEpochs does once the batch is assembled: a
/// discriminator step on L_i, then a generator step on L_g + 0.1 L_s,
/// each with gradient clipping.
class AtnnStepper {
 public:
  AtnnStepper(const data::TmallDataset& dataset,
              const core::AtnnConfig& config)
      : model_(*dataset.user_schema, *dataset.item_profile_schema,
               *dataset.item_stats_schema, config),
        optimizer_d_(model_.DiscriminatorParameters(), 2e-3f),
        optimizer_g_(model_.GeneratorParameters(), 2e-3f),
        parameters_(model_.Parameters()) {}

  struct StepLosses {
    std::array<float, 3> losses;  // L_i, L_g, L_s
    bool arena_backed = false;    // where L_i's value lived
  };

  /// One training step, inside an ArenaScope when `in_arena`.
  StepLosses Step(const data::CtrBatch& batch, bool in_arena) {
    std::optional<ArenaScope> scope;  // declared before every Var below
    if (in_arena) scope.emplace();
    ZeroAllGrads(parameters_);
    const Var user_vec = model_.UserVector(batch.user);
    const Var enc_vec =
        model_.EncoderItemVector(batch.item_profile, batch.item_stats);
    const Var loss_i = SigmoidBceLossWithLogits(
        model_.EncoderLogits(enc_vec, user_vec), batch.labels);
    Backward(loss_i);
    optimizer_d_.ClipGradNorm(5.0);
    optimizer_d_.Step();

    ZeroAllGrads(parameters_);
    const Var user_vec_g = model_.UserVector(batch.user);
    const Var enc_vec_g =
        model_.EncoderItemVector(batch.item_profile, batch.item_stats);
    const Var gen_vec = model_.GeneratorItemVector(batch.item_profile);
    const Var loss_g = SigmoidBceLossWithLogits(
        model_.GeneratorLogits(gen_vec, user_vec_g), batch.labels);
    const Var loss_s = model_.SimilarityLoss(gen_vec, enc_vec_g);
    Backward(Add(loss_g, Scale(loss_s, 0.1f)));
    optimizer_g_.ClipGradNorm(5.0);
    optimizer_g_.Step();
    return {{loss_i.value().scalar(), loss_g.value().scalar(),
             loss_s.value().scalar()},
            loss_i.value().arena_backed()};
  }

  /// The batched no-grad generator-path forward serving runs.
  float InferenceForward(const data::CtrBatch& batch) const {
    const NoGradGuard no_grad;
    const ArenaScope arena_scope;
    const Var user_vec = model_.UserVector(batch.user);
    const Var gen_vec = model_.GeneratorItemVector(batch.item_profile);
    return model_.GeneratorLogits(gen_vec, user_vec).value().at(0, 0);
  }

  const std::vector<Parameter*>& parameters() const { return parameters_; }

 private:
  core::AtnnModel model_;
  Adam optimizer_d_;
  Adam optimizer_g_;
  std::vector<Parameter*> parameters_;
};

core::AtnnConfig StepperConfig() {
  core::AtnnConfig config;
  config.tower = core::testing_helpers::TinyTowerConfig(TowerKind::kDeepCross);
  config.seed = 7;
  return config;
}

data::CtrBatch FirstTrainBatch(const data::TmallDataset& dataset) {
  const std::vector<int64_t> rows(dataset.train_indices.begin(),
                                  dataset.train_indices.begin() + 256);
  return data::MakeCtrBatch(dataset, rows);
}

// The arena changes where step tensors live, never what they hold: a few
// ATNN discriminator + generator steps, each inside an ArenaScope, end
// with the same losses and parameters, bit for bit, as the same steps on
// heap tensors. Checked on every kernel table this host runs.
TEST(ArenaScopeTest, AtnnTrainingStepsMatchHeapTensorsBitwise) {
  const data::TmallDataset dataset =
      core::testing_helpers::MakeNormalizedTinyDataset();
  const data::CtrBatch batch = FirstTrainBatch(dataset);

  struct Trained {
    std::vector<float> losses;  // per step: L_i, L_g, L_s
    std::vector<std::vector<float>> parameters;
  };
  const auto train = [&](bool in_arena) {
    AtnnStepper stepper(dataset, StepperConfig());
    Trained trained;
    for (int step = 0; step < 3; ++step) {
      const AtnnStepper::StepLosses step_losses =
          stepper.Step(batch, in_arena);
      EXPECT_EQ(step_losses.arena_backed, in_arena);
      trained.losses.insert(trained.losses.end(), step_losses.losses.begin(),
                            step_losses.losses.end());
    }
    for (const Parameter* parameter : stepper.parameters()) {
      const Tensor& value = parameter->value();
      trained.parameters.emplace_back(value.data(),
                                      value.data() + value.numel());
    }
    return trained;
  };

  for (const kernels::Backend backend :
       core::testing_helpers::HostBackends()) {
    SCOPED_TRACE(kernels::BackendName(backend));
    const core::testing_helpers::ScopedBackend use(backend);
    const Trained arena = train(/*in_arena=*/true);
    const Trained heap = train(/*in_arena=*/false);
    ASSERT_EQ(arena.losses.size(), heap.losses.size());
    EXPECT_EQ(std::memcmp(arena.losses.data(), heap.losses.data(),
                          arena.losses.size() * sizeof(float)),
              0);
    ASSERT_EQ(arena.parameters.size(), heap.parameters.size());
    for (size_t i = 0; i < arena.parameters.size(); ++i) {
      ASSERT_EQ(arena.parameters[i].size(), heap.parameters[i].size());
      EXPECT_EQ(std::memcmp(arena.parameters[i].data(),
                            heap.parameters[i].data(),
                            arena.parameters[i].size() * sizeof(float)),
                0)
          << "parameter " << i;
    }
  }
}

// The allocation-free steady state: once warm (Adam state, arena blocks,
// touched_rows capacity and Backward's thread-local traversal buffers),
// a full ATNN training step and a batched no-grad inference forward make
// zero heap allocations. Five warm-up steps, then a five-step window. The
// batch is fixed: batch assembly allocates by design. Report-only under
// sanitizers, whose runtimes allocate behind the counter's back.
TEST(ArenaScopeTest, WarmAtnnStepsMakeNoHeapAllocations) {
  const data::TmallDataset dataset =
      core::testing_helpers::MakeNormalizedTinyDataset();
  const data::CtrBatch batch = FirstTrainBatch(dataset);
  constexpr int kWarmup = 5;
  constexpr int kWindow = 5;
  for (const kernels::Backend backend :
       core::testing_helpers::HostBackends()) {
    SCOPED_TRACE(kernels::BackendName(backend));
    const core::testing_helpers::ScopedBackend use(backend);
    AtnnStepper stepper(dataset, StepperConfig());

    for (int i = 0; i < kWarmup; ++i) stepper.Step(batch, /*in_arena=*/true);
    const uint64_t before_train = counting_allocator::AllocationCount();
    for (int i = 0; i < kWindow; ++i) stepper.Step(batch, /*in_arena=*/true);
    const uint64_t train_allocations =
        counting_allocator::AllocationCount() - before_train;

    float sink = 0.0f;
    for (int i = 0; i < kWarmup; ++i) sink += stepper.InferenceForward(batch);
    const uint64_t before_infer = counting_allocator::AllocationCount();
    for (int i = 0; i < kWindow; ++i) sink += stepper.InferenceForward(batch);
    const uint64_t infer_allocations =
        counting_allocator::AllocationCount() - before_infer;
    EXPECT_TRUE(std::isfinite(sink));

    if (counting_allocator::kSanitized) {
      std::printf("%s: %llu train-step and %llu inference-forward "
                  "allocations (report-only under sanitizers)\n",
                  kernels::BackendName(backend),
                  static_cast<unsigned long long>(train_allocations),
                  static_cast<unsigned long long>(infer_allocations));
    } else {
      EXPECT_EQ(train_allocations, 0u);
      EXPECT_EQ(infer_allocations, 0u);
    }
  }
}

TEST(ArenaThreadingTest, EachThreadHasItsOwnArena) {
  // Four threads bump their own arenas concurrently; TSan (CI job) would
  // flag any shared mutable state, and the pointers must never collide.
  constexpr int kThreads = 4;
  std::vector<float*> first_alloc(kThreads, nullptr);
  // All threads must still be alive when the pointers are compared — a
  // thread-exit frees its arena and the next thread may reuse the address.
  std::latch all_allocated(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &first_alloc, &all_allocated] {
      const ArenaScope scope;
      Tensor mine = ScratchTensor(16, 16);
      first_alloc[t] = mine.data();
      all_allocated.arrive_and_wait();
      for (int step = 0; step < 50; ++step) {
        const ArenaScope inner;
        Tensor s = ScratchTensor(8, 8);
        s.Fill(static_cast<float>(t));
        ASSERT_EQ(s.at(7, 7), static_cast<float>(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    for (int j = i + 1; j < kThreads; ++j) {
      EXPECT_NE(first_alloc[i], first_alloc[j]);
    }
  }
}

TEST(ArenaStdAllocatorTest, HeapFallbackOutsideScope) {
  ASSERT_FALSE(ArenaActive());
  std::vector<int64_t, ArenaStdAllocator<int64_t>> v;
  for (int64_t i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v[999], 999);
  // Destructor exercises the tag-checked heap deallocation path.
}

TEST(ArenaStdAllocatorTest, ArenaBackedInsideScope) {
  const ArenaScope scope;
  const size_t before = ThreadArena().BytesInUse();
  {
    std::vector<float, ArenaStdAllocator<float>> v(64, 1.5f);
    EXPECT_GT(ThreadArena().BytesInUse(), before);
    EXPECT_EQ(v[63], 1.5f);
  }
  // deallocate() was a tag-checked no-op; the scope rewind reclaims.
}

TEST(ArenaStdAllocatorTest, SharedPtrControlBlockOutlivesScope) {
  // allocate_shared inside a scope, last reference dropped outside (and on
  // another thread): the tag header must route the free correctly.
  std::shared_ptr<int> survivor;
  {
    const ArenaScope scope;
    survivor = std::allocate_shared<int>(ArenaStdAllocator<int>(), 41);
  }
  EXPECT_EQ(*survivor, 41);
  std::thread([ptr = std::move(survivor)]() mutable {
    EXPECT_EQ(*ptr, 41);
    ptr.reset();
  }).join();
}

TEST(ArenaStdAllocatorTest, AllocatorEqualityIsStateless) {
  EXPECT_TRUE(ArenaStdAllocator<int>() == ArenaStdAllocator<float>());
}

}  // namespace
}  // namespace atnn::nn
