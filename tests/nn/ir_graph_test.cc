#include "nn/ir/graph.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "nn/tensor.h"

namespace atnn::nn::ir {
namespace {

/// Adds an owning constant filled with a deterministic ramp.
int32_t AddConst(Graph* graph, int64_t rows, int64_t cols,
                 const std::string& label, float base = 1.0f) {
  NodeDef def;
  def.kind = OpKind::kConstant;
  def.rows = rows;
  def.cols = cols;
  def.owned = Tensor(rows, cols);
  for (int64_t i = 0; i < def.owned.numel(); ++i) {
    def.owned.data()[i] = base + 0.25f * static_cast<float>(i);
  }
  def.data = def.owned.data();
  def.label = label;
  return graph->AddNode(std::move(def));
}

int32_t AddDenseInput(Graph* graph, int64_t batch, int64_t cols) {
  NodeDef def;
  def.kind = OpKind::kDenseInput;
  def.batch_rows = true;
  def.rows = batch;
  def.cols = cols;
  graph->set_dense_cols(cols);
  return graph->AddNode(std::move(def));
}

int32_t AddOp(Graph* graph, OpKind kind, std::vector<int32_t> inputs,
              int64_t rows, int64_t cols, bool batch_rows) {
  NodeDef def;
  def.kind = kind;
  def.inputs = std::move(inputs);
  def.rows = rows;
  def.cols = cols;
  def.batch_rows = batch_rows;
  return graph->AddNode(std::move(def));
}

TEST(IrGraphTest, AddNodeAssignsSequentialIdsAndValidates) {
  Graph graph;
  const int32_t x = AddDenseInput(&graph, 3, 4);
  const int32_t w = AddConst(&graph, 4, 2, "w");
  const int32_t mm = AddOp(&graph, OpKind::kMatMul, {x, w}, 3, 2, true);
  EXPECT_EQ(x, 0);
  EXPECT_EQ(w, 1);
  EXPECT_EQ(mm, 2);
  EXPECT_EQ(graph.size(), 3);
  graph.set_output(mm);
  EXPECT_TRUE(graph.Validate().ok()) << graph.Validate().ToString();
}

TEST(IrGraphTest, ValidateRejectsUnsetOutput) {
  Graph graph;
  AddConst(&graph, 1, 1, "c");
  const Status status = graph.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("output"), std::string::npos);
}

TEST(IrGraphTest, ValidateRejectsConstantWithoutData) {
  Graph graph;
  NodeDef def;
  def.kind = OpKind::kConstant;
  def.rows = 1;
  def.cols = 1;  // data left null
  graph.set_output(graph.AddNode(std::move(def)));
  EXPECT_EQ(graph.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(IrGraphTest, ValidateRejectsShapeMismatch) {
  Graph graph;
  const int32_t x = AddDenseInput(&graph, 3, 4);
  const int32_t w = AddConst(&graph, 5, 2, "w");  // 4 != 5: bad inner dim
  graph.set_output(AddOp(&graph, OpKind::kMatMul, {x, w}, 3, 2, true));
  const Status status = graph.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("matmul"), std::string::npos);
}

TEST(IrGraphTest, ValidateRejectsInplaceAliasingALeaf) {
  Graph graph;
  const int32_t c = AddConst(&graph, 2, 2, "c");
  const int32_t relu = AddOp(&graph, OpKind::kRelu, {c}, 2, 2, false);
  graph.mutable_node(relu).inplace = true;  // would clobber the constant
  graph.set_output(relu);
  const Status status = graph.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("inplace"), std::string::npos);
}

TEST(IrGraphTest, ValidateRejectsEmbedFieldOutsideRange) {
  Graph graph;
  const int32_t table = AddConst(&graph, 8, 4, "emb");
  NodeDef def;
  def.kind = OpKind::kEmbedLookup;
  def.inputs = {table};
  def.batch_rows = true;
  def.rows = 2;
  def.cols = 4;
  def.field = 1;  // but num_fields stays 0
  graph.set_output(graph.AddNode(std::move(def)));
  EXPECT_EQ(graph.Validate().code(), StatusCode::kInvalidArgument);
  graph.set_num_fields(2);
  EXPECT_TRUE(graph.Validate().ok()) << graph.Validate().ToString();
}

TEST(IrGraphTest, RemoveDeadNodesDropsAndRemaps) {
  Graph graph;
  const int32_t x = AddDenseInput(&graph, 3, 4);
  AddConst(&graph, 1, 1, "dead1");                      // unused
  const int32_t w = AddConst(&graph, 4, 4, "w");
  const int32_t dead2 = AddConst(&graph, 1, 4, "dead2");
  AddOp(&graph, OpKind::kScale, {dead2}, 1, 4, false);  // dead subtree
  const int32_t mm = AddOp(&graph, OpKind::kMatMul, {x, w}, 3, 4, true);
  graph.set_output(mm);

  EXPECT_EQ(graph.RemoveDeadNodes(), 3);
  EXPECT_EQ(graph.size(), 3);
  // Survivors keep their order and the live edge is remapped.
  EXPECT_EQ(graph.node(0).kind, OpKind::kDenseInput);
  EXPECT_EQ(graph.node(1).kind, OpKind::kConstant);
  EXPECT_EQ(graph.node(2).kind, OpKind::kMatMul);
  EXPECT_EQ(graph.node(2).inputs, (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(graph.output(), 2);
  EXPECT_TRUE(graph.Validate().ok());
  // Second sweep finds nothing.
  EXPECT_EQ(graph.RemoveDeadNodes(), 0);
}

TEST(IrGraphTest, ClearInplaceMarksResetsEveryNode) {
  Graph graph;
  const int32_t x = AddDenseInput(&graph, 3, 4);
  const int32_t relu = AddOp(&graph, OpKind::kRelu, {x}, 3, 4, true);
  const int32_t tanh = AddOp(&graph, OpKind::kTanh, {relu}, 3, 4, true);
  graph.mutable_node(tanh).inplace = true;
  graph.set_output(tanh);
  graph.ClearInplaceMarks();
  for (int32_t id = 0; id < graph.size(); ++id) {
    EXPECT_FALSE(graph.node(id).inplace) << id;
  }
}

TEST(IrGraphTest, ToTextIsDeterministicAndPointerFree) {
  Graph graph;
  const int32_t x = AddDenseInput(&graph, 3, 4);
  const int32_t w = AddConst(&graph, 4, 2, "w");
  const int32_t b = AddConst(&graph, 1, 2, "b");
  const int32_t affine =
      AddOp(&graph, OpKind::kDenseAffine, {x, w, b}, 3, 2, true);
  graph.mutable_node(affine).act = Activation::kRelu;
  const int32_t scaled = AddOp(&graph, OpKind::kScale, {affine}, 3, 2, true);
  graph.mutable_node(scaled).alpha = 0.5f;
  graph.mutable_node(scaled).inplace = true;
  graph.set_output(scaled);
  ASSERT_TRUE(graph.Validate().ok()) << graph.Validate().ToString();

  const std::string expected =
      "graph: nodes=5 fields=0 dense_cols=4\n"
      "%0 = dense_input : [Bx4]\n"
      "%1 = const \"w\" : [4x2]\n"
      "%2 = const \"b\" : [1x2]\n"
      "%3 = dense_affine(%0, %1, %2, act=relu) : [Bx2]\n"
      "%4 = scale(%3, alpha=0.5) : [Bx2] inplace\n"
      "output %4\n";
  EXPECT_EQ(graph.ToText(), expected);
  // Byte-for-byte stable across calls (golden tests rely on this).
  EXPECT_EQ(graph.ToText(), graph.ToText());

  // Low-precision tables print their format and shape, never a pointer.
  const int8_t codes[8] = {};
  const float scales[4] = {1, 1, 1, 1};
  const uint16_t bf16[8] = {};
  Graph lowered;
  lowered.set_num_fields(1);
  NodeDef lookup;
  lookup.kind = OpKind::kEmbedLookup;
  lookup.batch_rows = true;
  lookup.rows = 3;
  lookup.cols = 2;
  lookup.field = 0;
  lookup.weights = {.rows = 4, .s8 = codes, .scales = scales};
  const int32_t ids = lowered.AddNode(std::move(lookup));
  const int32_t bias = AddConst(&lowered, 1, 4, "b");
  const int32_t dense =
      AddOp(&lowered, OpKind::kDenseAffineBf16, {ids, bias}, 3, 4, true);
  lowered.mutable_node(dense).weights = {.rows = 2, .bf16 = bf16};
  lowered.set_output(dense);
  ASSERT_TRUE(lowered.Validate().ok()) << lowered.Validate().ToString();
  EXPECT_EQ(lowered.ToText(),
            "graph: nodes=3 fields=1 dense_cols=-1\n"
            "%0 = embed_lookup(s8[4x2], field=0, hash=0) : [Bx2]\n"
            "%1 = const \"b\" : [1x4]\n"
            "%2 = dense_affine_bf16(%0, %1, act=identity) : [Bx4]\n"
            "output %2\n");
}

TEST(IrGraphTest, ValidateRejectsLowPrecisionNodesWithoutWeights) {
  const int8_t codes[8] = {};
  const int32_t colsum[4] = {};
  const float scales[4] = {1, 1, 1, 1};
  Graph graph;
  const int32_t x = AddDenseInput(&graph, 3, 2);
  const int32_t b = AddConst(&graph, 1, 4, "b");
  const int32_t dense =
      AddOp(&graph, OpKind::kDenseAffineS8, {x, b}, 3, 4, true);
  graph.set_output(dense);
  EXPECT_EQ(graph.Validate().code(), StatusCode::kInvalidArgument);
  LowPrecisionWeights& w = graph.mutable_node(dense).weights;
  w = {.rows = 2, .s8 = codes, .colsum = colsum, .scales = scales,
       .act_scale = 0.5f};
  EXPECT_TRUE(graph.Validate().ok()) << graph.Validate().ToString();
  w.act_scale = 0.0f;  // the input codes would divide by it
  EXPECT_EQ(graph.Validate().code(), StatusCode::kInvalidArgument);
  w.act_scale = 0.5f;
  w.rows = 3;  // the weight no longer takes x's width
  EXPECT_EQ(graph.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(IrGraphTest, OpKindNameCoversEveryKind) {
  EXPECT_STREQ(OpKindName(OpKind::kConstant), "const");
  EXPECT_STREQ(OpKindName(OpKind::kDenseInput), "dense_input");
  EXPECT_STREQ(OpKindName(OpKind::kEmbedLookup), "embed_lookup");
  EXPECT_STREQ(OpKindName(OpKind::kMatMul), "matmul");
  EXPECT_STREQ(OpKindName(OpKind::kDenseAffine), "dense_affine");
  EXPECT_STREQ(OpKindName(OpKind::kDenseAffineS8), "dense_affine_s8");
  EXPECT_STREQ(OpKindName(OpKind::kDenseAffineBf16), "dense_affine_bf16");
  EXPECT_STREQ(OpKindName(OpKind::kConcatCols), "concat_cols");
  EXPECT_STREQ(OpKindName(OpKind::kSliceCols), "slice_cols");
}

}  // namespace
}  // namespace atnn::nn::ir
