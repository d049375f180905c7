// Seeded differential harness over the generator's executors. Each pair
// runs the same generated inputs through two executors on every kernel
// table this host has, and requires the outputs to match byte for byte or
// both sides to reject the batch (InvalidArgument on the plan side):
//   - the reference interpreter (reference_interpreter.h) against the
//     CompiledPlan lowered from an int8 artifact, and from a bf16 one;
//   - the autograd tape against the fp32 CompiledPlan built from it.
// The fp32 plan and the int8 plan of a tower without sigmoid layers are
// also promised bitwise equal across kernel tables, and the harness checks
// that too. Generated cases vary the
// tower, the batch size (0, 1, odd, max_batch, above it), the ids (in range,
// past their table, negative, hashed) and the dense block (NaN, +-Inf,
// subnormals, -0.0, all-zero rows).

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "../quant/artifact_layout.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/atnn.h"
#include "core/generator_plan.h"
#include "data/schema.h"
#include "nn/autograd.h"
#include "nn/ir/plan.h"
#include "nn/kernels.h"
#include "quant/quantized_generator.h"
#include "reference_interpreter.h"

// Counting global allocator (the scheme bench_compiled uses): every
// operator new bumps one counter, so a window of plan executions can
// require that it does not move.
namespace {

std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return alignment > alignof(std::max_align_t)
             ? std::aligned_alloc(alignment, (size + alignment - 1) /
                                                 alignment * alignment)
             : std::malloc(size);
}

// Out of line, so the compiler never pairs an inlined free() with the
// operator new it can see in this file.
[[gnu::noinline]] void Release(void* ptr) { std::free(ptr); }

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
void operator delete(void* ptr) noexcept { Release(ptr); }
void operator delete[](void* ptr) noexcept { Release(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { Release(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { Release(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { Release(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  Release(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  Release(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  Release(ptr);
}

namespace atnn::diff {
namespace {

using core::testing_helpers::HostBackends;
using core::testing_helpers::ScopedBackend;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr uint64_t kSeed = 0x5eed'd1ff'2026ULL;
// 40 towers x 250 batches = 10,000 cases per pair and kernel table.
constexpr int kTowers = 40;
constexpr int kBatchesPerTower = 250;

/// x86's default quiet NaN. It is the only NaN the inputs carry, so every
/// NaN either side produces or propagates has this one bit pattern.
const float kNaN = std::bit_cast<float>(0xffc00000u);

enum class Pair { kInt8, kBf16, kFp32 };

const char* PairName(Pair pair) {
  switch (pair) {
    case Pair::kInt8:
      return "reference vs lowered int8 plan";
    case Pair::kBf16:
      return "reference vs lowered bf16 plan";
    case Pair::kFp32:
      return "tape vs fp32 plan";
  }
  return "?";
}

/// One generated generator tower and the executor under test for a pair.
struct Tower {
  std::shared_ptr<const data::FeatureSchema> items;
  std::unique_ptr<core::AtnnModel> model;
  std::shared_ptr<const quant::QuantizedGenerator> artifact;  // int8/bf16
  std::shared_ptr<const nn::ir::CompiledPlan> plan;
  /// The kernel tables' sigmoid epilogues round differently (the AVX2 one
  /// uses a polynomial exp), so only towers without one are promised the
  /// same bits on every table.
  bool same_on_every_table = false;
  std::string description;
};

std::shared_ptr<const data::FeatureSchema> RandomItemSchema(Rng& rng) {
  std::vector<data::FeatureSpec> specs;
  const int64_t fields = rng.UniformInt(int64_t{1}, int64_t{4});
  for (int64_t f = 0; f < fields; ++f) {
    specs.push_back(data::FeatureSpec::Categorical(
        std::string("c").append(std::to_string(f)),
        rng.UniformInt(int64_t{1}, int64_t{13}),
        rng.UniformInt(int64_t{1}, int64_t{6})));
  }
  const int64_t numeric = rng.UniformInt(int64_t{0}, int64_t{4});
  for (int64_t n = 0; n < numeric; ++n) {
    specs.push_back(data::FeatureSpec::Numeric(
        std::string("n").append(std::to_string(n))));
  }
  return std::make_shared<const data::FeatureSchema>(std::move(specs));
}

/// `rows` readable rows (ids in range, finite dense values).
data::BlockBatch CleanBatch(Rng& rng, const data::FeatureSchema& schema,
                            int64_t rows) {
  data::BlockBatch batch;
  for (size_t f = 0; f < schema.num_categorical(); ++f) {
    const int64_t vocab = schema.categorical_spec(f).vocab_size;
    std::vector<int64_t> ids(static_cast<size_t>(rows));
    for (int64_t& id : ids) id = rng.UniformInt(int64_t{0}, vocab);
    batch.categorical.push_back(std::move(ids));
  }
  batch.numeric = nn::Tensor(rows, static_cast<int64_t>(schema.num_numeric()));
  for (int64_t i = 0; i < batch.numeric.numel(); ++i) {
    batch.numeric.data()[i] = static_cast<float>(rng.Normal(0.0, 1.5));
  }
  return batch;
}

/// A generated case: a batch size from {0, 1, odd, max_batch, above it},
/// ids that may run past their table or go negative, and a dense block
/// salted with the values executors most often disagree on.
data::BlockBatch RandomCase(Rng& rng, const data::FeatureSchema& schema,
                            int64_t max_batch) {
  int64_t rows = 0;
  switch (rng.UniformInt(int64_t{0}, int64_t{6})) {
    case 0:
      rows = 0;
      break;
    case 1:
      rows = 1;
      break;
    case 2:
      rows = max_batch;
      break;
    case 3:
      rows = rng.UniformInt(max_batch + 1, 3 * max_batch + 2);
      break;
    default:  // odd, up to max_batch
      rows = 2 * rng.UniformInt(int64_t{0}, (max_batch + 1) / 2) + 1;
      break;
  }
  data::BlockBatch batch = CleanBatch(rng, schema, rows);
  if (rng.Bernoulli(0.2)) {
    for (size_t f = 0; f < batch.categorical.size(); ++f) {
      const int64_t vocab = schema.categorical_spec(f).vocab_size;
      for (int64_t& id : batch.categorical[f]) {
        if (!rng.Bernoulli(0.05)) continue;
        const int64_t step = rng.UniformInt(int64_t{0}, int64_t{50});
        id = rng.Bernoulli(0.5) ? vocab + step : -1 - step;
      }
    }
  }
  static const float kSpecials[] = {
      kNaN,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -3.0e-39f,
      1.0e-40f,
      -0.0f,
      0.0f,
      std::numeric_limits<float>::max(),
  };
  const int64_t cols = batch.numeric.cols();
  for (int64_t r = 0; r < rows && cols > 0; ++r) {
    float* row = batch.numeric.row_ptr(r);
    if (rng.Bernoulli(0.1)) {
      std::fill(row, row + cols, 0.0f);
      continue;
    }
    for (int64_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(0.08)) {
        row[c] = kSpecials[rng.UniformInt(
            int64_t{0}, static_cast<int64_t>(std::size(kSpecials)))];
      }
    }
  }
  return batch;
}

/// True when the tape's embedding gather could read every id (it aborts
/// on the others).
bool TapeCanRead(const data::BlockBatch& batch,
                 const data::FeatureSchema& schema) {
  for (size_t f = 0; f < batch.categorical.size(); ++f) {
    for (const int64_t id : batch.categorical[f]) {
      if (id < 0 || id >= schema.categorical_spec(f).vocab_size) return false;
    }
  }
  return true;
}

/// Rows [begin, end) of `batch`.
data::BlockBatch Slice(const data::BlockBatch& batch, int64_t begin,
                       int64_t end) {
  data::BlockBatch chunk;
  for (const std::vector<int64_t>& ids : batch.categorical) {
    chunk.categorical.emplace_back(ids.begin() + begin, ids.begin() + end);
  }
  chunk.numeric = nn::Tensor(end - begin, batch.numeric.cols());
  if (chunk.numeric.numel() > 0) {
    std::memcpy(chunk.numeric.data(), batch.numeric.row_ptr(begin),
                static_cast<size_t>(chunk.numeric.numel()) * sizeof(float));
  }
  return chunk;
}

/// `batch` through `plan` in max_batch-row chunks, the way
/// core::ScoreItemsWithPlan chunks a request.
Status PlanForward(const nn::ir::CompiledPlan& plan,
                   const data::BlockBatch& batch, std::vector<float>* out) {
  nn::ir::PlanScratch scratch;
  const int64_t rows = batch.rows();
  const int64_t cols = plan.output_cols();
  out->assign(static_cast<size_t>(rows * cols), 0.0f);
  for (int64_t begin = 0; begin < rows; begin += plan.max_batch()) {
    const int64_t end = std::min(begin + plan.max_batch(), rows);
    const data::BlockBatch chunk = Slice(batch, begin, end);
    const StatusOr<const float*> vectors = plan.Execute(
        {&chunk.categorical, &chunk.numeric}, end - begin, &scratch);
    if (!vectors.ok()) return vectors.status();
    std::memcpy(out->data() + begin * cols, *vectors,
                static_cast<size_t>((end - begin) * cols) * sizeof(float));
  }
  return Status::OK();
}

/// The artifact with the chosen fields turned into hashed fields over the
/// same tables (hash_buckets == rows, the only hashed form Validate takes).
std::shared_ptr<const quant::QuantizedGenerator> Rehash(
    const quant::QuantizedGenerator& artifact,
    const std::vector<bool>& hashed) {
  BinaryWriter writer;
  artifact.SerializeTo(&writer);
  std::string payload = writer.buffer();
  for (const quant::wire::Int64Slot& slot :
       quant::wire::Int64Slots(payload)) {
    for (size_t f = 0; f < hashed.size(); ++f) {
      if (hashed[f] &&
          slot.what == "field " + std::to_string(f) + " hash_buckets") {
        payload = quant::wire::WithInt64(payload, slot.offset, slot.rows);
      }
    }
  }
  BinaryReader reader(payload);
  auto rehashed = quant::QuantizedGenerator::DeserializeFrom(&reader);
  ATNN_CHECK(rehashed.ok()) << rehashed.status().ToString();
  return std::make_shared<const quant::QuantizedGenerator>(
      std::move(rehashed).value());
}

Tower MakeTower(Rng& rng, Pair pair) {
  Tower tower;
  tower.items = RandomItemSchema(rng);
  core::AtnnConfig config;
  config.tower.kind = rng.Bernoulli(0.5) ? nn::TowerKind::kDeepCross
                                         : nn::TowerKind::kFullyConnected;
  config.tower.deep_dims.clear();
  const int64_t depth = rng.UniformInt(int64_t{1}, int64_t{4});
  for (int64_t d = 0; d < depth; ++d) {
    config.tower.deep_dims.push_back(rng.UniformInt(int64_t{1}, int64_t{18}));
  }
  config.tower.cross_layers =
      static_cast<int>(rng.UniformInt(int64_t{1}, int64_t{4}));
  config.tower.output_dim = rng.UniformInt(int64_t{1}, int64_t{10});
  static const nn::Activation kHidden[] = {nn::Activation::kRelu,
                                           nn::Activation::kSigmoid,
                                           nn::Activation::kIdentity};
  config.tower.hidden_activation =
      kHidden[rng.UniformInt(int64_t{0}, int64_t{3})];
  tower.same_on_every_table =
      config.tower.hidden_activation != nn::Activation::kSigmoid &&
      pair != Pair::kBf16;
  config.seed = rng.NextUint64();
  const data::FeatureSchema users({data::FeatureSpec::Categorical("u", 3, 2),
                                   data::FeatureSpec::Numeric("un")});
  const data::FeatureSchema stats({data::FeatureSpec::Numeric("s")});
  tower.model = std::make_unique<core::AtnnModel>(users, *tower.items, stats,
                                                  config);
  const int64_t max_batch = rng.UniformInt(int64_t{1}, int64_t{17});
  tower.description =
      std::string(config.tower.kind == nn::TowerKind::kDeepCross ? "dcn"
                                                                 : "fc") +
      " depth=" + std::to_string(depth) +
      " cross=" + std::to_string(config.tower.cross_layers) +
      " out=" + std::to_string(config.tower.output_dim) +
      " hidden=" + std::to_string(static_cast<int>(
                       config.tower.hidden_activation)) +
      " max_batch=" + std::to_string(max_batch) +
      " fields=" + std::to_string(tower.items->num_categorical()) +
      " numeric=" + std::to_string(tower.items->num_numeric());

  if (pair == Pair::kFp32) {
    const data::EntityTable probe(tower.items, 1);
    auto plan = core::CompileGeneratorPlan(*tower.model, probe, max_batch);
    ATNN_CHECK(plan.ok()) << plan.status().ToString();
    tower.plan = std::move(plan).value();
    return tower;
  }
  const data::BlockBatch calibration = CleanBatch(rng, *tower.items, 8);
  auto built = quant::QuantizedGenerator::Build(
      *tower.model, calibration,
      pair == Pair::kInt8 ? quant::Precision::kInt8 : quant::Precision::kBf16);
  ATNN_CHECK(built.ok()) << built.status().ToString();
  // Some fields hash their ids; the tape's towers never do.
  std::vector<bool> hashed;
  for (size_t f = 0; f < tower.items->num_categorical(); ++f) {
    hashed.push_back(rng.Bernoulli(0.3));
  }
  tower.artifact = Rehash(*built, hashed);
  const data::EntityTable items(tower.items, 1);
  auto plan = quant::CompileQuantizedPlan(*tower.artifact, items, max_batch,
                                          tower.artifact);
  ATNN_CHECK(plan.ok()) << plan.status().ToString();
  tower.plan = std::move(plan).value();
  return tower;
}

/// One side's answer to a case.
struct Answer {
  Status status;
  std::vector<float> out;
};

std::string Bits(float value) {
  char text[48];
  std::snprintf(text, sizeof(text), "%.9g (0x%08x)", value,
                std::bit_cast<uint32_t>(value));
  return text;
}

/// Why two answers disagree, or nothing when they match bitwise or both
/// reject with InvalidArgument on the plan side.
std::optional<std::string> Disagreement(const Answer& reference,
                                        const Answer& plan) {
  if (!reference.status.ok() || !plan.status.ok()) {
    if (reference.status.ok() || plan.status.ok()) {
      return "one side rejected: reference " + reference.status.ToString() +
             ", plan " + plan.status.ToString();
    }
    if (plan.status.code() != StatusCode::kInvalidArgument) {
      return "plan rejected with " + plan.status.ToString();
    }
    return std::nullopt;
  }
  if (reference.out.size() != plan.out.size()) {
    return "output sizes " + std::to_string(reference.out.size()) + " vs " +
           std::to_string(plan.out.size());
  }
  for (size_t i = 0; i < plan.out.size(); ++i) {
    if (std::memcmp(&reference.out[i], &plan.out[i], sizeof(float)) != 0) {
      return "element " + std::to_string(i) + ": reference " +
             Bits(reference.out[i]) + ", plan " + Bits(plan.out[i]);
    }
  }
  return std::nullopt;
}

struct PairReport {
  int64_t cases = 0;     // per kernel table
  int64_t compared = 0;  // cases where both sides answered, every table
  int64_t rejected = 0;  // cases where both sides rejected, every table
  std::vector<std::string> failures;

  void Fail(std::string what) {
    if (failures.size() < 10) failures.push_back(std::move(what));
    ++failed;
  }
  int64_t failed = 0;
};

/// Runs `towers` x `batches` generated cases of `pair` on every host
/// kernel table. `plant_ulp` moves the first finite reference output one
/// ulp before comparing, which every answered case must then report.
PairReport RunPair(Pair pair, int towers, int batches, bool plant_ulp) {
  Rng rng(kSeed + static_cast<uint64_t>(pair));
  PairReport report;
  for (int t = 0; t < towers; ++t) {
    const Tower tower = MakeTower(rng, pair);
    for (int b = 0; b < batches; ++b) {
      const data::BlockBatch batch =
          RandomCase(rng, *tower.items, tower.plan->max_batch());
      const std::string where = tower.description + " case " +
                                std::to_string(t) + "." + std::to_string(b) +
                                " rows=" + std::to_string(batch.rows());
      std::optional<Answer> first_table;
      for (const nn::kernels::Backend backend : HostBackends()) {
        const ScopedBackend scoped(backend);
        const std::string on =
            where + " on " + nn::kernels::BackendName(backend) + ": ";
        Answer plan;
        plan.status = PlanForward(*tower.plan, batch, &plan.out);
        Answer reference;
        if (pair != Pair::kFp32) {
          reference.status =
              ReferenceForward(*tower.artifact, batch, &reference.out);
        } else if (!TapeCanRead(batch, *tower.items)) {
          // The tape would abort; the plan must refuse the batch.
          reference.status = Status::InvalidArgument("unreadable id");
        } else if (batch.rows() > 0) {
          const nn::NoGradGuard no_grad;
          const nn::Tensor vectors =
              tower.model->GeneratorItemVector(batch).value();
          reference.out.assign(vectors.data(),
                               vectors.data() + vectors.numel());
        }
        if (plant_ulp) {
          for (float& v : reference.out) {
            if (std::isfinite(v)) {
              v = std::nextafter(v, std::numeric_limits<float>::infinity());
              break;
            }
          }
        }
        if (const auto why = Disagreement(reference, plan)) {
          report.Fail(on + *why);
        } else if (plan.status.ok()) {
          ++report.compared;
        } else {
          ++report.rejected;
        }
        if (tower.same_on_every_table) {
          if (!first_table.has_value()) {
            first_table = std::move(plan);
          } else if (const auto why = Disagreement(*first_table, plan)) {
            report.Fail(on + "differs across kernel tables: " + *why);
          }
        }
      }
      ++report.cases;
    }
  }
  return report;
}

std::string Summary(Pair pair, const PairReport& report) {
  std::string text = std::string(PairName(pair)) + ": " +
                     std::to_string(report.cases) + " cases per table, " +
                     std::to_string(report.compared) + " compared, " +
                     std::to_string(report.rejected) + " rejected by both, " +
                     std::to_string(report.failed) + " failed";
  for (const std::string& failure : report.failures) text += "\n  " + failure;
  return text;
}

class DiffHarnessTest : public ::testing::TestWithParam<Pair> {};

TEST_P(DiffHarnessTest, ExecutorsAgreeBitwiseOrBothReject) {
  const PairReport report =
      RunPair(GetParam(), kTowers, kBatchesPerTower, /*plant_ulp=*/false);
  std::printf("%s\n", Summary(GetParam(), report).c_str());
  EXPECT_EQ(report.failed, 0) << Summary(GetParam(), report);
  EXPECT_GE(report.cases, 10000);
  // The generator must reach both outcomes, or half the contract goes
  // untested.
  EXPECT_GT(report.compared, report.cases);
  EXPECT_GT(report.rejected, 0);
}

// The harness itself: a one-ulp change planted in the reference output
// must be reported on every case where both sides answered something.
TEST_P(DiffHarnessTest, ReportsAPlantedOneUlpChange) {
  const PairReport clean =
      RunPair(GetParam(), /*towers=*/3, /*batches=*/40, /*plant_ulp=*/false);
  ASSERT_EQ(clean.failed, 0) << Summary(GetParam(), clean);
  const PairReport planted =
      RunPair(GetParam(), /*towers=*/3, /*batches=*/40, /*plant_ulp=*/true);
  EXPECT_GT(planted.failed, 0);
  // Same seed, same cases: only answers without a finite value to move
  // (empty batches, all-NaN outputs) may still compare equal.
  EXPECT_EQ(planted.compared + planted.failed, clean.compared);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, DiffHarnessTest,
    ::testing::Values(Pair::kInt8, Pair::kBf16, Pair::kFp32),
    [](const ::testing::TestParamInfo<Pair>& info) {
      switch (info.param) {
        case Pair::kInt8:
          return std::string("int8");
        case Pair::kBf16:
          return std::string("bf16");
        case Pair::kFp32:
          return std::string("fp32");
      }
      return std::string("unknown");
    });

// A lowered plan runs off its warmed scratch alone: no heap allocation per
// execution, at any batch size up to max_batch. Report-only under
// sanitizers, whose runtimes allocate behind the counter's back.
TEST(DiffHarnessAllocationTest, LoweredPlansAllocateNothingAfterWarmup) {
  Rng rng(kSeed);
  for (const Pair pair : {Pair::kInt8, Pair::kBf16}) {
    for (int t = 0; t < 4; ++t) {
      const Tower tower = MakeTower(rng, pair);
      const int64_t max_batch = tower.plan->max_batch();
      std::vector<data::BlockBatch> batches;  // one per size, max_batch..1
      for (int64_t rows = max_batch; rows >= 1; --rows) {
        batches.push_back(CleanBatch(rng, *tower.items, rows));
      }
      nn::ir::PlanScratch scratch;
      ASSERT_TRUE(tower.plan
                      ->Execute({&batches[0].categorical, &batches[0].numeric},
                                max_batch, &scratch)
                      .ok());
      const uint64_t before = g_alloc_count.load();
      bool ok = true;
      for (const data::BlockBatch& batch : batches) {
        ok &= tower.plan
                  ->Execute({&batch.categorical, &batch.numeric},
                            batch.rows(), &scratch)
                  .ok();
      }
      const uint64_t allocations = g_alloc_count.load() - before;
      EXPECT_TRUE(ok) << tower.description;
      if (kSanitized) {
        std::printf("%s: %llu allocations (report-only under sanitizers)\n",
                    tower.description.c_str(),
                    static_cast<unsigned long long>(allocations));
      } else {
        EXPECT_EQ(allocations, 0u) << tower.description;
      }
    }
  }
}

}  // namespace
}  // namespace atnn::diff
