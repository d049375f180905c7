#include "core/generator_plan.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "nn/ir/graph.h"

namespace atnn::core {

namespace {

using nn::ir::Graph;
using nn::ir::NodeDef;
using nn::ir::OpKind;

/// The table check of CompileGeneratorSpec (see its comment).
Status CheckSpecReadsTable(const GeneratorSpec& spec,
                           const data::EntityTable& items) {
  if (items.num_rows() == 0) {
    return Status::FailedPrecondition("empty item table: nothing to serve");
  }
  if (items.schema_ptr() == nullptr) {
    return Status::InvalidArgument("item table has no schema");
  }
  const data::FeatureSchema& schema = items.schema();
  if (schema.num_categorical() != spec.fields.size()) {
    return Status::InvalidArgument(
        "item table has " + std::to_string(schema.num_categorical()) +
        " categorical fields, the generator reads " +
        std::to_string(spec.fields.size()));
  }
  int64_t embed_width = 0;
  for (size_t f = 0; f < spec.fields.size(); ++f) {
    const GeneratorField& field = spec.fields[f];
    embed_width += field.table.cols;
    if (field.hash_buckets > 0) continue;  // hashing takes any id
    const data::FeatureSpec& feature = schema.categorical_spec(f);
    if (feature.vocab_size > field.table.rows) {
      return Status::InvalidArgument(
          "item field '" + feature.name + "' has vocab " +
          std::to_string(feature.vocab_size) + ", the generator's table has " +
          std::to_string(field.table.rows) + " rows");
    }
  }
  const auto numeric = static_cast<int64_t>(schema.num_numeric());
  if (numeric != spec.dense_cols) {
    return Status::InvalidArgument(
        "item table assembles a " + std::to_string(embed_width + numeric) +
        "-wide generator input, the tower takes " +
        std::to_string(embed_width + spec.dense_cols));
  }
  return Status::OK();
}

/// A [batch, cols] node; the plan sizes batch values by max_batch, so the
/// nominal row count is 1.
NodeDef BatchNode(OpKind kind, int64_t cols, std::vector<int32_t> inputs) {
  NodeDef node;
  node.kind = kind;
  node.inputs = std::move(inputs);
  node.batch_rows = true;
  node.rows = 1;
  node.cols = cols;
  return node;
}

/// A [rows, cols] constant borrowing `data`.
int32_t AddConstant(Graph* graph, const float* data, int64_t rows,
                    int64_t cols) {
  NodeDef node;
  node.rows = rows;
  node.cols = cols;
  node.data = data;
  node.label = "param";
  return graph->AddNode(std::move(node));
}

/// act(x W + b) over the batch value `x`: dense_affine after its weight
/// and bias constants, or a low-precision kind after its bias.
int32_t AddDense(Graph* graph, const GeneratorDense& layer, int32_t x) {
  const GeneratorWeights& w = layer.weight;
  NodeDef node;
  if (w.fp32 != nullptr) {
    const int32_t weight = AddConstant(graph, w.fp32, w.rows, w.cols);
    node = BatchNode(OpKind::kDenseAffine, w.cols,
                     {x, weight, AddConstant(graph, layer.bias, 1, w.cols)});
  } else {
    node = BatchNode(w.low.s8 != nullptr ? OpKind::kDenseAffineS8
                                         : OpKind::kDenseAffineBf16,
                     w.cols, {x, AddConstant(graph, layer.bias, 1, w.cols)});
    node.weights = w.low;
    node.weights.rows = w.rows;
  }
  node.act = layer.act;
  return graph->AddNode(std::move(node));
}

}  // namespace

StatusOr<std::shared_ptr<const nn::ir::CompiledPlan>> CompileGeneratorSpec(
    const GeneratorSpec& spec, const data::EntityTable& item_profiles,
    int64_t max_batch, std::shared_ptr<const void> keepalive) {
  ATNN_RETURN_IF_ERROR(CheckSpecReadsTable(spec, item_profiles));
  Graph graph;
  // x0 = concat_cols(one lookup per field, the dense block)
  std::vector<int32_t> parts;
  int64_t width = 0;
  for (const GeneratorField& field : spec.fields) {
    const GeneratorWeights& table = field.table;
    NodeDef lookup = BatchNode(OpKind::kEmbedLookup, table.cols, {});
    if (table.fp32 != nullptr) {
      lookup.inputs = {
          AddConstant(&graph, table.fp32, table.rows, table.cols)};
    } else {
      lookup.weights = table.low;
      lookup.weights.rows = table.rows;
    }
    lookup.field = static_cast<int32_t>(parts.size());
    lookup.hash_buckets = field.hash_buckets;
    parts.push_back(graph.AddNode(std::move(lookup)));
    width += table.cols;
  }
  graph.set_num_fields(static_cast<int32_t>(parts.size()));
  if (spec.dense_cols > 0) {
    graph.set_dense_cols(spec.dense_cols);
    parts.push_back(
        graph.AddNode(BatchNode(OpKind::kDenseInput, spec.dense_cols, {})));
    width += spec.dense_cols;
  }
  const int32_t x0 =
      graph.AddNode(BatchNode(OpKind::kConcatCols, width, std::move(parts)));

  int32_t deep = x0;
  for (const GeneratorDense& layer : spec.deep) {
    deep = AddDense(&graph, layer, deep);
  }
  int32_t head_in = deep;
  if (!spec.cross.empty()) {
    int32_t x = x0;
    for (const GeneratorCross& layer : spec.cross) {
      const int32_t w = AddConstant(&graph, layer.w, width, 1);
      const int32_t b = AddConstant(&graph, layer.b, 1, width);
      x = graph.AddNode(BatchNode(OpKind::kCrossLayer, width, {x, x0, w, b}));
    }
    head_in = graph.AddNode(BatchNode(
        OpKind::kConcatCols, width + graph.node(deep).cols, {x, deep}));
  }
  graph.set_output(AddDense(&graph, spec.head, head_in));

  ATNN_ASSIGN_OR_RETURN(
      std::unique_ptr<nn::ir::CompiledPlan> plan,
      nn::ir::CompiledPlan::Compile(std::move(graph), {.max_batch = max_batch},
                                    std::move(keepalive)));
  return std::shared_ptr<const nn::ir::CompiledPlan>(std::move(plan));
}

StatusOr<std::shared_ptr<const nn::ir::CompiledPlan>> CompileGeneratorPlan(
    const AtnnModel& model, const data::EntityTable& item_profiles,
    int64_t max_batch, std::shared_ptr<const void> keepalive) {
  const auto weights = [](const nn::Parameter& param) {
    const nn::Tensor& value = param.value();
    return GeneratorWeights{value.rows(), value.cols(), value.data(), {}};
  };
  const auto dense = [&](const nn::Dense& layer) {
    return GeneratorDense{weights(layer.weight()),
                          layer.bias().value().data(), layer.activation()};
  };
  const nn::EmbeddingBag& bag = model.generator_embedding_bag();
  const nn::Tower& tower = model.generator_tower();
  GeneratorSpec spec;
  for (size_t f = 0; f < bag.num_fields(); ++f) {
    spec.fields.push_back({bag.field(f).hash_buckets, weights(bag.table(f))});
  }
  spec.dense_cols = tower.input_dim() - bag.OutputDim(0);
  for (const nn::Dense& layer : tower.deep().layers()) {
    spec.deep.push_back(dense(layer));
  }
  if (const nn::CrossNetwork* cross = tower.cross(); cross != nullptr) {
    for (int l = 0; l < cross->num_layers(); ++l) {
      spec.cross.push_back({cross->weight(l).value().data(),
                            cross->bias(l).value().data()});
    }
  }
  spec.head = dense(tower.head());
  return CompileGeneratorSpec(spec, item_profiles, max_batch,
                              std::move(keepalive));
}

StatusOr<std::vector<double>> ScoreItemsWithPlan(
    const nn::ir::CompiledPlan& plan, const PopularityPredictor& predictor,
    const data::EntityTable& item_profiles,
    const std::vector<int64_t>& item_rows) {
  std::vector<double> scores;
  scores.reserve(item_rows.size());
  nn::ir::PlanScratch scratch;
  data::BlockBuffer block;
  const int64_t cols = plan.output_cols();
  const size_t max_batch = static_cast<size_t>(plan.max_batch());
  for (size_t begin = 0; begin < item_rows.size(); begin += max_batch) {
    const size_t end = std::min(begin + max_batch, item_rows.size());
    const std::span<const int64_t> chunk(item_rows.data() + begin,
                                         end - begin);
    data::GatherBlockInto(item_profiles, chunk, &block);
    ATNN_ASSIGN_OR_RETURN(
        const float* vectors,
        plan.Execute({&block.categorical, block.numeric.data(), block.rows,
                      block.numeric_cols},
                     block.rows, &scratch));
    for (size_t r = 0; r < chunk.size(); ++r) {
      scores.push_back(
          predictor.ScoreVector(vectors + static_cast<int64_t>(r) * cols,
                                cols));
    }
  }
  return scores;
}

}  // namespace atnn::core
