#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <utility>

#include "common/rng.h"
#include "core/generator_plan.h"
#include "core/trainer.h"
#include "nn/ir/graph.h"
#include "nn/kernels.h"
#include "stats.h"

namespace atnn::perfbench {

namespace {

using Micros = std::chrono::duration<double, std::micro>;

/// The generator's GEMMs as the compiled plan issues them: (k, n) of every
/// matmul / dense_affine node, multiplicity counted.
std::vector<std::pair<int64_t, int64_t>> GemmShapes(
    const nn::ir::CompiledPlan& plan) {
  std::vector<std::pair<int64_t, int64_t>> shapes;
  const nn::ir::Graph& graph = plan.graph();
  for (const nn::ir::NodeDef& node : graph.nodes()) {
    if (node.kind != nn::ir::OpKind::kMatMul &&
        node.kind != nn::ir::OpKind::kDenseAffine) {
      continue;
    }
    const nn::ir::NodeDef& weight = graph.node(node.inputs[1]);
    shapes.emplace_back(weight.rows, weight.cols);
  }
  return shapes;
}

}  // namespace

void RunProbes(const ProbeInputs& inputs, Tracer* tracer, Report* report) {
  Tracer::Buffer* buffer = tracer->NewBuffer();
  const uint16_t span_probes = tracer->Intern("probes");
  const uint16_t span_compile = tracer->Intern("core.CompileGeneratorPlan");
  const uint16_t span_plan_score = tracer->Intern("core.ScoreItemsWithPlan");
  const uint16_t span_build = tracer->Intern("core.PopularityPredictor::Build");
  const uint16_t span_gemm = tracer->Intern("nn.gemm");
  const uint16_t span_ctr = tracer->Intern("data.MakeCtrBatch");
  const uint16_t span_train = tracer->Intern("core.TrainAtnnOnIndices");
  const World& world = *inputs.world;
  const data::TmallDataset& dataset = world.dataset;
  ScopedSpan root(tracer, buffer, span_probes, 0, 0);

  // core.CompileGeneratorPlan, as Publish runs it.
  std::shared_ptr<const nn::ir::CompiledPlan> plan;
  std::vector<double> compile_ms;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(tracer, buffer, span_compile, 0, root.id());
    const auto start = Clock::now();
    auto compiled = core::CompileGeneratorPlan(
        *inputs.model, *world.item_profiles, kServingMaxBatch);
    compile_ms.push_back(Micros(Clock::now() - start).count() * 1e-3);
    if (!compiled.ok()) {
      report->Fail("probe compile failed: " + compiled.status().ToString());
      return;
    }
    plan = std::move(compiled).value();
  }
  report->Layer("core.compile_ms", Median(&compile_ms), "ms");

  // core.ScoreItemsWithPlan over the workload's own rows, in the batch
  // sizes the runtime can form.
  const auto plan_score_us = [&](int64_t batch) {
    std::vector<double> times;
    const size_t b = static_cast<size_t>(batch);
    const size_t calls =
        std::clamp<size_t>(inputs.rows.size() / b, 1, batch >= 64 ? 200 : 400);
    std::vector<int64_t> rows(b);
    for (size_t c = 0; c < calls; ++c) {
      for (size_t j = 0; j < b; ++j) {
        rows[j] = inputs.rows[(c * b + j) % inputs.rows.size()];
      }
      ScopedSpan span(tracer, buffer, span_plan_score, c, root.id());
      const auto start = Clock::now();
      auto scores = core::ScoreItemsWithPlan(*plan, *inputs.predictor,
                                             *world.item_profiles, rows);
      times.push_back(Micros(Clock::now() - start).count());
      if (!scores.ok()) {
        report->Fail("probe plan scoring failed: " +
                     scores.status().ToString());
        break;
      }
    }
    return Median(&times);
  };
  report->Layer("core.plan_score_us.b1", plan_score_us(1), "us");
  report->Layer("core.plan_score_us.b8", plan_score_us(8), "us");
  report->Layer("core.plan_score_us.b64", plan_score_us(64), "us");
  const int64_t formed = std::clamp<int64_t>(
      static_cast<int64_t>(std::lround(inputs.batch_rows_mean)), 1,
      kServingMaxBatch);
  report->Detail("core.plan_score_us.formed_b" + std::to_string(formed),
                 plan_score_us(formed), "us");

  // core.PopularityPredictor::Build, as every publish of a fresh model runs
  // it.
  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, buffer, span_build, 0, root.id());
    const auto start = Clock::now();
    const auto predictor = core::PopularityPredictor::Build(
        *inputs.model, dataset, world.user_group);
    build_ms.push_back(Micros(Clock::now() - start).count() * 1e-3);
  }
  report->Layer("core.predictor_build_ms", Median(&build_ms), "ms");

  // nn kernel table gemm at the generator's layer shapes, max batch rows.
  // Operation counts and bytes come from the tensor sizes.
  Rng rng(HashCombine(inputs.seed, 0x67656d6dULL));
  const auto& kernels = nn::kernels::Kernels();
  const int64_t m = kServingMaxBatch;
  std::map<std::pair<int64_t, int64_t>, int> shapes;
  for (const auto& shape : GemmShapes(*plan)) ++shapes[shape];
  double total_flop = 0.0;
  double total_s = 0.0;
  std::printf("nn gemm at generator layer shapes (m=%lld rows, backend %s)\n",
              static_cast<long long>(m),
              nn::kernels::BackendName(nn::kernels::ActiveBackend()));
  for (const auto& [shape, uses] : shapes) {
    const auto [k, n] = shape;
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    std::vector<float> c(static_cast<size_t>(m * n));
    for (float& x : a) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    for (float& x : b) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    const double flop = 2.0 * static_cast<double>(m * k * n);
    const double bytes = 4.0 * static_cast<double>(m * k + k * n + m * n);
    const int reps = static_cast<int>(
        std::clamp(2e8 / std::max(flop, 1.0), 50.0, 20000.0));
    std::vector<double> per_call_us;
    for (int batch = 0; batch < 9; ++batch) {
      ScopedSpan span(tracer, buffer, span_gemm, 0, root.id());
      const auto start = Clock::now();
      for (int r = 0; r < reps / 9 + 1; ++r) {
        kernels.gemm(m, k, n, a.data(), b.data(), c.data());
      }
      per_call_us.push_back(Micros(Clock::now() - start).count() /
                            static_cast<double>(reps / 9 + 1));
    }
    const double us = Median(&per_call_us);
    total_flop += flop * uses;
    total_s += us * 1e-6 * uses;
    std::printf("  k=%-4lld n=%-4lld x%d  %8.0f flop  %8.0f bytes  "
                "%5.2f flop/byte  %7.3f us  %6.2f GFLOP/s\n",
                static_cast<long long>(k), static_cast<long long>(n), uses,
                flop, bytes, flop / bytes, us, flop / (us * 1e3));
  }
  report->Layer("nn.gemm_gflops", total_s > 0.0 ? total_flop / total_s * 1e-9
                                                : 0.0,
                "GFLOP/s");

  // data::MakeCtrBatch at the training batch size.
  std::vector<int64_t> indices = dataset.train_indices;
  for (size_t i = indices.size(); i > 1; --i) {
    std::swap(indices[i - 1], indices[rng.UniformInt(i)]);
  }
  constexpr size_t kBatch = 256;
  std::vector<double> ctr_us;
  for (size_t c = 0; c < 200 && (c + 1) * kBatch <= indices.size(); ++c) {
    ScopedSpan span(tracer, buffer, span_ctr, c, root.id());
    const auto start = Clock::now();
    const data::CtrBatch batch = data::MakeCtrBatch(
        dataset, std::span<const int64_t>(indices.data() + c * kBatch, kBatch));
    ctr_us.push_back(Micros(Clock::now() - start).count());
  }
  report->Layer("data.ctr_batch_us", Median(&ctr_us), "us");

  // Training step time: the live trainer's, or a short run on a copy.
  obs::MetricsRegistry probe_registry;
  const obs::MetricsRegistry* train_registry = inputs.train_registry;
  if (train_registry == nullptr) {
    core::AtnnModel model(*dataset.user_schema, *dataset.item_profile_schema,
                          *dataset.item_stats_schema,
                          inputs.model->config());
    core::TrainOptions options;
    options.epochs = 1;
    options.batch_size = static_cast<int>(kBatch);
    options.learning_rate = 2e-3f;
    options.seed = inputs.seed;
    options.metrics = &probe_registry;
    const size_t rows = std::min<size_t>(indices.size(), 64 * kBatch);
    ScopedSpan span(tracer, buffer, span_train, 0, root.id());
    core::TrainAtnnOnIndices(
        &model, dataset, std::span<const int64_t>(indices.data(), rows),
        options);
    train_registry = &probe_registry;
  }
  obs::LogHistogram step_us;
  for (const auto& [name, histogram] : train_registry->Collect().histograms) {
    if (name == "train.step_us") step_us = histogram;
  }
  report->Layer("train.step_p50_us", step_us.Percentile(0.5), "us");
  report->Layer("train.step_p99_us", step_us.Percentile(0.99), "us");
  report->Detail("train.steps", static_cast<double>(step_us.count()),
                 "count");
}

}  // namespace atnn::perfbench
