#include "nn/ir/passes.h"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../core/test_helpers.h"
#include "common/rng.h"
#include "core/atnn.h"
#include "data/schema.h"
#include "data/tmall.h"
#include "nn/ir/plan.h"
#include "nn/ir/trace.h"
#include "nn/kernels.h"
#include "nn/tensor.h"

namespace atnn::nn::ir {
namespace {

int32_t AddConst(Graph* graph, int64_t rows, int64_t cols,
                 const std::string& label, float base) {
  NodeDef def;
  def.kind = OpKind::kConstant;
  def.rows = rows;
  def.cols = cols;
  def.owned = Tensor(rows, cols);
  for (int64_t i = 0; i < def.owned.numel(); ++i) {
    def.owned.data()[i] = base + 0.125f * static_cast<float>(i);
  }
  def.data = def.owned.data();
  def.label = label;
  return graph->AddNode(std::move(def));
}

int32_t AddOp(Graph* graph, OpKind kind, std::vector<int32_t> inputs,
              int64_t rows, int64_t cols, bool batch_rows,
              float alpha = 0.0f) {
  NodeDef def;
  def.kind = kind;
  def.inputs = std::move(inputs);
  def.rows = rows;
  def.cols = cols;
  def.batch_rows = batch_rows;
  def.alpha = alpha;
  return graph->AddNode(std::move(def));
}

/// One graph exercising every default pass: a foldable constant subtree, a
/// dead node, a matmul+add_bias+relu chain the fuser collapses, and a tail
/// add_bias the in-place pass can alias. Rebuilt fresh per use — Graph is
/// intentionally not copy-safe once NodeDefs own tensors.
Graph MakeKitchenSinkGraph() {
  Graph graph;
  graph.set_dense_cols(4);
  NodeDef dense;
  dense.kind = OpKind::kDenseInput;
  dense.batch_rows = true;
  dense.rows = 3;
  dense.cols = 4;
  const int32_t x = graph.AddNode(std::move(dense));         // %0
  const int32_t w = AddConst(&graph, 4, 4, "w", 0.5f);       // %1
  const int32_t b = AddConst(&graph, 1, 4, "b", -0.25f);     // %2
  const int32_t c1 = AddConst(&graph, 1, 4, "c1", 1.0f);     // %3
  const int32_t c2 = AddConst(&graph, 1, 4, "c2", 2.0f);     // %4
  const int32_t folded =
      AddOp(&graph, OpKind::kAdd, {c1, c2}, 1, 4, false);    // %5
  const int32_t mm =
      AddOp(&graph, OpKind::kMatMul, {x, w}, 3, 4, true);    // %6
  const int32_t biased =
      AddOp(&graph, OpKind::kAddBias, {mm, b}, 3, 4, true);  // %7
  const int32_t relu =
      AddOp(&graph, OpKind::kRelu, {biased}, 3, 4, true);    // %8
  const int32_t out =
      AddOp(&graph, OpKind::kAddBias, {relu, folded}, 3, 4, true);  // %9
  AddOp(&graph, OpKind::kScale, {c1}, 1, 4, false, 2.0f);    // %10, dead
  graph.set_output(out);
  return graph;
}

// ---------------------------------------------------------------------------
// Golden dumps: the exact pre/post text form of every default pass, applied
// in pipeline order. Any change to a pass's rewrite or to ToText shows up
// as a readable diff here.
// ---------------------------------------------------------------------------

TEST(IrPassesTest, GoldenDumpsThroughTheDefaultPipeline) {
  Graph graph = MakeKitchenSinkGraph();
  ASSERT_TRUE(graph.Validate().ok()) << graph.Validate().ToString();

  EXPECT_EQ(graph.ToText(),
            "graph: nodes=11 fields=0 dense_cols=4\n"
            "%0 = dense_input : [Bx4]\n"
            "%1 = const \"w\" : [4x4]\n"
            "%2 = const \"b\" : [1x4]\n"
            "%3 = const \"c1\" : [1x4]\n"
            "%4 = const \"c2\" : [1x4]\n"
            "%5 = add(%3, %4) : [1x4]\n"
            "%6 = matmul(%0, %1) : [Bx4]\n"
            "%7 = add_bias(%6, %2) : [Bx4]\n"
            "%8 = relu(%7) : [Bx4]\n"
            "%9 = add_bias(%8, %5) : [Bx4]\n"
            "%10 = scale(%3, alpha=2) : [1x4]\n"
            "output %9\n");

  // Folding bakes the two all-constant computations (the add feeding the
  // output and the dead scale) into owned constants.
  int changes = 0;
  ASSERT_TRUE(RunPass(kConstantFolding, &graph, &changes).ok());
  EXPECT_EQ(changes, 2);
  EXPECT_EQ(graph.ToText(),
            "graph: nodes=11 fields=0 dense_cols=4\n"
            "%0 = dense_input : [Bx4]\n"
            "%1 = const \"w\" : [4x4]\n"
            "%2 = const \"b\" : [1x4]\n"
            "%3 = const \"c1\" : [1x4]\n"
            "%4 = const \"c2\" : [1x4]\n"
            "%5 = const \"folded\" : [1x4]\n"
            "%6 = matmul(%0, %1) : [Bx4]\n"
            "%7 = add_bias(%6, %2) : [Bx4]\n"
            "%8 = relu(%7) : [Bx4]\n"
            "%9 = add_bias(%8, %5) : [Bx4]\n"
            "%10 = const \"folded\" : [1x4]\n"
            "output %9\n");

  // DCE sweeps the dead (folded) scale and the constants folding orphaned.
  changes = 0;
  ASSERT_TRUE(RunPass(kDeadCodeElimination, &graph, &changes).ok());
  EXPECT_EQ(changes, 3);
  EXPECT_EQ(graph.ToText(),
            "graph: nodes=8 fields=0 dense_cols=4\n"
            "%0 = dense_input : [Bx4]\n"
            "%1 = const \"w\" : [4x4]\n"
            "%2 = const \"b\" : [1x4]\n"
            "%3 = const \"folded\" : [1x4]\n"
            "%4 = matmul(%0, %1) : [Bx4]\n"
            "%5 = add_bias(%4, %2) : [Bx4]\n"
            "%6 = relu(%5) : [Bx4]\n"
            "%7 = add_bias(%6, %3) : [Bx4]\n"
            "output %7\n");

  // Fusion collapses relu(add_bias(matmul)) into one dense_affine; the
  // bypassed pair goes dead until the next DCE.
  changes = 0;
  ASSERT_TRUE(RunPass(kEpilogueFusion, &graph, &changes).ok());
  EXPECT_EQ(changes, 1);
  EXPECT_EQ(graph.ToText(),
            "graph: nodes=8 fields=0 dense_cols=4\n"
            "%0 = dense_input : [Bx4]\n"
            "%1 = const \"w\" : [4x4]\n"
            "%2 = const \"b\" : [1x4]\n"
            "%3 = const \"folded\" : [1x4]\n"
            "%4 = matmul(%0, %1) : [Bx4]\n"
            "%5 = add_bias(%4, %2) : [Bx4]\n"
            "%6 = dense_affine(%0, %1, %2, act=relu) : [Bx4]\n"
            "%7 = add_bias(%6, %3) : [Bx4]\n"
            "output %7\n");

  changes = 0;
  ASSERT_TRUE(RunPass(kDeadCodeElimination, &graph, &changes).ok());
  EXPECT_EQ(changes, 2);

  // The tail add_bias reads the dense_affine exactly once at matching
  // shape: it may overwrite its input buffer.
  changes = 0;
  ASSERT_TRUE(RunPass(kInplaceRewrite, &graph, &changes).ok());
  EXPECT_EQ(changes, 1);
  EXPECT_EQ(graph.ToText(),
            "graph: nodes=6 fields=0 dense_cols=4\n"
            "%0 = dense_input : [Bx4]\n"
            "%1 = const \"w\" : [4x4]\n"
            "%2 = const \"b\" : [1x4]\n"
            "%3 = const \"folded\" : [1x4]\n"
            "%4 = dense_affine(%0, %1, %2, act=relu) : [Bx4]\n"
            "%5 = add_bias(%4, %3) : [Bx4] inplace\n"
            "output %5\n");
}

TEST(IrPassesTest, RunDefaultPassesReportsPerPassChanges) {
  Graph graph = MakeKitchenSinkGraph();
  std::string summary;
  ASSERT_TRUE(RunDefaultPasses(&graph, &summary).ok());
  EXPECT_EQ(summary, "fold:2 dce:3 fuse:1 dce:2 inplace:1");
  EXPECT_EQ(graph.size(), 6);
  EXPECT_TRUE(graph.Validate().ok());
}

// ---------------------------------------------------------------------------
// Idempotence: a second application of any pass is a no-op on the text form
// (and, for the rewriting passes, reports zero changes).
// ---------------------------------------------------------------------------

TEST(IrPassesTest, EveryPassIsIdempotent) {
  for (const Pass& pass : DefaultPasses()) {
    Graph graph = MakeKitchenSinkGraph();
    ASSERT_TRUE(RunPass(pass, &graph).ok()) << pass.name;
    const std::string once = graph.ToText();
    int second_changes = 0;
    ASSERT_TRUE(RunPass(pass, &graph, &second_changes).ok()) << pass.name;
    EXPECT_EQ(graph.ToText(), once) << pass.name;
    // The in-place pass recomputes its marks from scratch each run, so its
    // change count reflects marks set, not new rewrites.
    if (std::string(pass.name) != "inplace") {
      EXPECT_EQ(second_changes, 0) << pass.name;
    }
  }
}

TEST(IrPassesTest, WholePipelineIsIdempotent) {
  Graph graph = MakeKitchenSinkGraph();
  ASSERT_TRUE(RunDefaultPasses(&graph).ok());
  const std::string once = graph.ToText();
  std::string summary;
  ASSERT_TRUE(RunDefaultPasses(&graph, &summary).ok());
  EXPECT_EQ(graph.ToText(), once);
  EXPECT_EQ(summary, "fold:0 dce:0 fuse:0 dce:0 inplace:1");
}

// ---------------------------------------------------------------------------
// Cross-layer fusion: the tape's four-op Deep & Cross layer becomes one
// cross_layer node, and only when the rewrite is provably the same math.
// ---------------------------------------------------------------------------

int32_t AddDenseInput(Graph* graph, int64_t cols) {
  graph->set_dense_cols(cols);
  NodeDef dense;
  dense.kind = OpKind::kDenseInput;
  dense.batch_rows = true;
  dense.rows = 3;
  dense.cols = cols;
  return graph->AddNode(std::move(dense));
}

/// One layer as CrossNetwork::Forward traces it:
///   add(add_bias(scale_rows(x0, matmul(x_l, w)), b), residual)
/// with residual == x_l in the real network. Returns the add.
int32_t AddCrossChain(Graph* graph, int32_t xl, int32_t x0, int32_t w,
                      int32_t b, int32_t residual) {
  const int64_t d = graph->node(x0).cols;
  const int32_t mm = AddOp(graph, OpKind::kMatMul, {xl, w}, 3,
                           graph->node(w).cols, true);
  const int32_t scaled =
      AddOp(graph, OpKind::kScaleRows, {x0, mm}, 3, d, true);
  const int32_t biased =
      AddOp(graph, OpKind::kAddBias, {scaled, b}, 3, d, true);
  return AddOp(graph, OpKind::kAdd, {biased, residual}, 3, d, true);
}

Graph MakeCrossStackGraph() {
  Graph graph;
  const int32_t x0 = AddDenseInput(&graph, 4);                // %0
  const int32_t w0 = AddConst(&graph, 4, 1, "w0", 0.5f);      // %1
  const int32_t b0 = AddConst(&graph, 1, 4, "b0", -0.25f);    // %2
  const int32_t w1 = AddConst(&graph, 4, 1, "w1", -0.75f);    // %3
  const int32_t b1 = AddConst(&graph, 1, 4, "b1", 0.125f);    // %4
  const int32_t x1 = AddCrossChain(&graph, x0, x0, w0, b0, x0);  // %5-%8
  graph.set_output(AddCrossChain(&graph, x1, x0, w1, b1, x1));   // %9-%12
  return graph;
}

TEST(IrCrossFusionTest, TwoLayerStackFusesIntoTwoCrossLayerSteps) {
  Graph graph = MakeCrossStackGraph();
  ASSERT_TRUE(graph.Validate().ok()) << graph.Validate().ToString();
  EXPECT_EQ(graph.ToText(),
            "graph: nodes=13 fields=0 dense_cols=4\n"
            "%0 = dense_input : [Bx4]\n"
            "%1 = const \"w0\" : [4x1]\n"
            "%2 = const \"b0\" : [1x4]\n"
            "%3 = const \"w1\" : [4x1]\n"
            "%4 = const \"b1\" : [1x4]\n"
            "%5 = matmul(%0, %1) : [Bx1]\n"
            "%6 = scale_rows(%0, %5) : [Bx4]\n"
            "%7 = add_bias(%6, %2) : [Bx4]\n"
            "%8 = add(%7, %0) : [Bx4]\n"
            "%9 = matmul(%8, %3) : [Bx1]\n"
            "%10 = scale_rows(%0, %9) : [Bx4]\n"
            "%11 = add_bias(%10, %4) : [Bx4]\n"
            "%12 = add(%11, %8) : [Bx4]\n"
            "output %12\n");

  std::string summary;
  ASSERT_TRUE(RunDefaultPasses(&graph, &summary).ok());
  EXPECT_EQ(summary, "fold:0 dce:0 fuse:2 dce:6 inplace:1");
  // Layer 0 reads the dense input as both x_l and x0, so it owns a fresh
  // buffer; layer 1 is the last reader of layer 0's output and overwrites
  // it in place.
  EXPECT_EQ(graph.ToText(),
            "graph: nodes=7 fields=0 dense_cols=4\n"
            "%0 = dense_input : [Bx4]\n"
            "%1 = const \"w0\" : [4x1]\n"
            "%2 = const \"b0\" : [1x4]\n"
            "%3 = const \"w1\" : [4x1]\n"
            "%4 = const \"b1\" : [1x4]\n"
            "%5 = cross_layer(%0, %0, %1, %2) : [Bx4]\n"
            "%6 = cross_layer(%5, %0, %3, %4) : [Bx4] inplace\n"
            "output %6\n");

  // A second run of the whole pipeline finds nothing left to fuse.
  ASSERT_TRUE(RunDefaultPasses(&graph, &summary).ok());
  EXPECT_EQ(summary, "fold:0 dce:0 fuse:0 dce:0 inplace:1");
}

TEST(IrCrossFusionTest, FusedStackExecutesBitwiseLikeTheUnfusedChain) {
  constexpr int64_t kBatch = 5;
  Tensor dense(kBatch, 4);
  Rng rng(17);
  for (int64_t i = 0; i < dense.numel(); ++i) {
    dense.data()[i] = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  for (const kernels::Backend backend : core::testing_helpers::HostBackends()) {
    SCOPED_TRACE(kernels::BackendName(backend));
    const core::testing_helpers::ScopedBackend scoped(backend);
    std::vector<std::vector<float>> outputs;
    std::vector<size_t> steps;
    for (const bool optimize : {false, true}) {
      CompiledPlan::Options options;
      options.max_batch = 8;
      options.optimize = optimize;
      auto plan = CompiledPlan::Compile(MakeCrossStackGraph(), options);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      PlanScratch scratch;
      const auto out = (*plan)->Execute({nullptr, &dense}, kBatch, &scratch);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      outputs.emplace_back(out.value(), out.value() + kBatch * 4);
      steps.push_back((*plan)->num_steps());
    }
    EXPECT_EQ(steps[0], 8u);
    EXPECT_EQ(steps[1], 2u);
    EXPECT_EQ(std::memcmp(outputs[0].data(), outputs[1].data(),
                          outputs[0].size() * sizeof(float)),
              0);
  }
}

TEST(IrCrossFusionTest, ChainsThatAreNotExactlyACrossLayerStayUnfused) {
  // A second reader of an intermediate (here a concat beside the layer's
  // output) still needs that value materialized.
  for (const int offset : {1, 2, 3}) {  // the matmul, scale_rows, add_bias
    Graph graph;
    const int32_t x0 = AddDenseInput(&graph, 4);
    const int32_t w = AddConst(&graph, 4, 1, "w", 0.5f);
    const int32_t b = AddConst(&graph, 1, 4, "b", -0.25f);
    const int32_t out = AddCrossChain(&graph, x0, x0, w, b, x0);
    const int32_t extra = out - 4 + offset;
    graph.set_output(AddOp(&graph, OpKind::kConcatCols, {out, extra}, 3,
                           4 + graph.node(extra).cols, true));
    std::string summary;
    ASSERT_TRUE(RunDefaultPasses(&graph, &summary).ok());
    EXPECT_NE(summary.find("fuse:0"), std::string::npos) << summary;
    EXPECT_EQ(graph.ToText().find("cross_layer"), std::string::npos);
  }
  {
    // The residual is not the matmul's left operand: that is a different
    // layer (x0 * (x_l w) + b + x0), not a cross layer.
    Graph graph;
    const int32_t x0 = AddDenseInput(&graph, 4);
    const int32_t w = AddConst(&graph, 4, 1, "w", 0.5f);
    const int32_t b = AddConst(&graph, 1, 4, "b", -0.25f);
    const int32_t xl = AddOp(&graph, OpKind::kRelu, {x0}, 3, 4, true);
    graph.set_output(AddCrossChain(&graph, xl, x0, w, b, x0));
    std::string summary;
    ASSERT_TRUE(RunDefaultPasses(&graph, &summary).ok());
    EXPECT_EQ(graph.ToText().find("cross_layer"), std::string::npos);
    EXPECT_NE(summary.find("fuse:0"), std::string::npos) << summary;
  }
  {
    // A [d,2] weight. scale_rows only takes an [m,1] scale, so Validate
    // rejects this chain; the pass must not turn it into a cross layer
    // that reads one column of a two-column product either.
    Graph graph;
    const int32_t x0 = AddDenseInput(&graph, 4);
    const int32_t w = AddConst(&graph, 4, 2, "w", 0.5f);
    const int32_t b = AddConst(&graph, 1, 4, "b", -0.25f);
    graph.set_output(AddCrossChain(&graph, x0, x0, w, b, x0));
    EXPECT_FALSE(graph.Validate().ok());
    const std::string before = graph.ToText();
    int changes = 0;
    kEpilogueFusion.run(&graph, &changes);
    EXPECT_EQ(changes, 0);
    EXPECT_EQ(graph.ToText(), before);
  }
}

// ---------------------------------------------------------------------------
// Property: passes never change the numbers. Any subset of the passes, in
// any order, compiled and executed on the real generator graph, produces
// output bytes identical to the untouched graph's.
// ---------------------------------------------------------------------------

class IrPassOrderPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(
        core::testing_helpers::MakeNormalizedTinyDataset());
    core::AtnnConfig config;
    config.tower =
        core::testing_helpers::TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.seed = 11;
    model_ = new core::AtnnModel(*dataset_->user_schema,
                                 *dataset_->item_profile_schema,
                                 *dataset_->item_stats_schema, config);
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  /// Fresh trace of the generator forward (tracing is deterministic, so
  /// every call yields the same graph; Graph is rebuilt rather than copied
  /// because NodeDef::data may point into its own owned tensor).
  static Graph TraceGenerator() {
    constexpr int64_t kProbeBatch = 3;
    const data::BlockBatch probe =
        data::GatherBlock(dataset_->item_profiles, {0, 0, 0});
    auto graph = TraceGraph(kProbeBatch, [&] {
      return model_->GeneratorItemVector(probe);
    });
    ATNN_CHECK(graph.ok()) << graph.status().ToString();
    return std::move(graph).value();
  }

  /// Lowers `graph` as-is (no implicit pipeline) and runs one batch.
  static std::vector<float> ExecuteAsIs(Graph graph,
                                        const data::BlockBatch& block,
                                        int64_t batch) {
    CompiledPlan::Options options;
    options.max_batch = 8;
    options.optimize = false;
    auto plan = CompiledPlan::Compile(std::move(graph), options);
    ATNN_CHECK(plan.ok()) << plan.status().ToString();
    PlanScratch scratch;
    const auto out =
        (*plan)->Execute({&block.categorical, &block.numeric}, batch,
                         &scratch);
    ATNN_CHECK(out.ok()) << out.status().ToString();
    const size_t count =
        static_cast<size_t>(batch * (*plan)->output_cols());
    return {out.value(), out.value() + count};
  }

  static data::TmallDataset* dataset_;
  static core::AtnnModel* model_;
};

data::TmallDataset* IrPassOrderPropertyTest::dataset_ = nullptr;
core::AtnnModel* IrPassOrderPropertyTest::model_ = nullptr;

TEST_F(IrPassOrderPropertyTest, AnyPassOrderYieldsBitwiseIdenticalOutputs) {
  constexpr int64_t kBatch = 5;
  const std::vector<int64_t> rows = {0, 3, 7, 11, 2};
  const data::BlockBatch block =
      data::GatherBlock(dataset_->item_profiles, rows);

  for (const kernels::Backend backend : core::testing_helpers::HostBackends()) {
    SCOPED_TRACE(kernels::BackendName(backend));
    const core::testing_helpers::ScopedBackend scoped(backend);
    const std::vector<float> baseline =
        ExecuteAsIs(TraceGenerator(), block, kBatch);
    ASSERT_FALSE(baseline.empty());

    const std::span<const Pass> passes = DefaultPasses();
    Rng rng(20260809);
    constexpr int kRounds = 12;
    for (int round = 0; round < kRounds; ++round) {
      Graph graph = TraceGenerator();
      std::string applied;
      const int length = static_cast<int>(rng.UniformInt(7));
      for (int i = 0; i < length; ++i) {
        const Pass& pass = passes[rng.UniformInt(passes.size())];
        ASSERT_TRUE(RunPass(pass, &graph).ok()) << pass.name;
        applied += std::string(pass.name) + " ";
      }
      const std::vector<float> out = ExecuteAsIs(std::move(graph), block,
                                                 kBatch);
      ASSERT_EQ(out.size(), baseline.size()) << "order: " << applied;
      EXPECT_EQ(std::memcmp(out.data(), baseline.data(),
                            out.size() * sizeof(float)),
                0)
          << "order: " << applied;
    }

    // The shipped pipeline (what optimize=true runs) is covered explicitly,
    // and on this DCN generator it fuses every cross layer.
    Graph graph = TraceGenerator();
    ASSERT_TRUE(RunDefaultPasses(&graph).ok());
    EXPECT_NE(graph.ToText().find("cross_layer"), std::string::npos);
    const std::vector<float> optimized = ExecuteAsIs(std::move(graph), block,
                                                     kBatch);
    EXPECT_EQ(std::memcmp(optimized.data(), baseline.data(),
                          baseline.size() * sizeof(float)),
              0);
  }
}

}  // namespace
}  // namespace atnn::nn::ir
