#include "nn/ir/graph.h"

#include <sstream>
#include <utility>

#include "common/macros.h"

namespace atnn::nn::ir {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kConstant:    return "const";
    case OpKind::kDenseInput:  return "dense_input";
    case OpKind::kEmbedLookup: return "embed_lookup";
    case OpKind::kMatMul:      return "matmul";
    case OpKind::kDenseAffine: return "dense_affine";
    case OpKind::kDenseAffineS8: return "dense_affine_s8";
    case OpKind::kDenseAffineBf16: return "dense_affine_bf16";
    case OpKind::kConcatCols:  return "concat_cols";
    case OpKind::kCrossLayer:  return "cross_layer";
  }
  return "unknown";
}

namespace {

const char* ActivationName(Activation act) {
  switch (act) {
    case Activation::kIdentity:  return "identity";
    case Activation::kRelu:      return "relu";
    case Activation::kSigmoid:   return "sigmoid";
    case Activation::kTanh:      return "tanh";
    case Activation::kLeakyRelu: return "leaky_relu";
  }
  return "unknown";
}

bool IsLeafKind(OpKind kind) {
  return kind == OpKind::kConstant || kind == OpKind::kDenseInput;
}

}  // namespace

bool IsEpilogueActivation(Activation act) {
  return act == Activation::kIdentity || act == Activation::kRelu ||
         act == Activation::kSigmoid;
}

int32_t Graph::AddNode(NodeDef def) {
  const int32_t id = size();
  for (const int32_t input : def.inputs) {
    ATNN_CHECK(input >= 0 && input < id)
        << "node %" << id << " references %" << input
        << " (inputs must be earlier nodes)";
  }
  nodes_.push_back(std::move(def));
  return id;
}

Status Graph::Validate() const {
  if (output_ < 0 || output_ >= size()) {
    return Status::InvalidArgument("graph output not set or out of range");
  }
  for (int32_t id = 0; id < size(); ++id) {
    const NodeDef& node = nodes_[id];
    const auto fail = [&](const std::string& why) {
      return Status::InvalidArgument("node %" + std::to_string(id) + " (" +
                                     OpKindName(node.kind) + "): " + why);
    };
    for (const int32_t input : node.inputs) {
      if (input < 0 || input >= id) return fail("input out of order");
    }
    if (node.rows <= 0 || node.cols <= 0) return fail("non-positive shape");
    if (node.inplace) {
      if (node.inputs.empty()) return fail("inplace mark without inputs");
      if (IsLeafKind(nodes_[node.inputs[0]].kind)) {
        return fail("inplace mark aliases a leaf buffer");
      }
    }
    const auto expect_inputs = [&](size_t n) {
      return node.inputs.size() == n
                 ? Status::OK()
                 : fail("expected " + std::to_string(n) + " inputs, got " +
                        std::to_string(node.inputs.size()));
    };
    switch (node.kind) {
      case OpKind::kConstant:
        ATNN_RETURN_IF_ERROR(expect_inputs(0));
        if (node.data == nullptr) return fail("constant without data");
        if (node.batch_rows) return fail("constant cannot be batch-sized");
        break;
      case OpKind::kDenseInput:
        ATNN_RETURN_IF_ERROR(expect_inputs(0));
        if (!node.batch_rows) return fail("dense input must be batch-sized");
        break;
      case OpKind::kEmbedLookup: {
        if (node.field < 0 || node.field >= num_fields_) {
          return fail("field index outside [0, num_fields)");
        }
        if (node.inputs.empty()) {  // an int8 or bf16 table on the node
          const LowPrecisionWeights& w = node.weights;
          if (w.rows <= 0 || (w.s8 != nullptr) == (w.bf16 != nullptr) ||
              (w.s8 != nullptr && w.scales == nullptr)) {
            return fail("table must be one non-empty int8 or bf16 matrix");
          }
          break;
        }
        ATNN_RETURN_IF_ERROR(expect_inputs(1));
        const NodeDef& table = nodes_[node.inputs[0]];
        if (table.kind != OpKind::kConstant) {
          return fail("embedding table must be a constant");
        }
        if (node.cols != table.cols) return fail("dim mismatch with table");
        break;
      }
      case OpKind::kMatMul: {
        ATNN_RETURN_IF_ERROR(expect_inputs(2));
        const NodeDef& a = nodes_[node.inputs[0]];
        const NodeDef& b = nodes_[node.inputs[1]];
        if (a.cols != b.rows || node.cols != b.cols) {
          return fail("shape mismatch");
        }
        break;
      }
      case OpKind::kDenseAffine:
      case OpKind::kDenseAffineS8:
      case OpKind::kDenseAffineBf16: {
        // Inputs (x, w, b), or (x, b) with the weight in `weights`.
        const bool fp32 = node.kind == OpKind::kDenseAffine;
        ATNN_RETURN_IF_ERROR(expect_inputs(fp32 ? 3 : 2));
        const NodeDef& x = nodes_[node.inputs[0]];
        const NodeDef& b = nodes_[node.inputs.back()];
        const LowPrecisionWeights& low = node.weights;
        const int64_t w_rows = fp32 ? nodes_[node.inputs[1]].rows : low.rows;
        const int64_t w_cols = fp32 ? nodes_[node.inputs[1]].cols : node.cols;
        if (x.cols != w_rows || node.cols != w_cols || b.rows != 1 ||
            b.cols != w_cols) {
          return fail("shape mismatch");
        }
        if (!IsEpilogueActivation(node.act)) {
          return fail("unsupported fused activation");
        }
        if (node.kind == OpKind::kDenseAffineS8
                ? !low.s8 || !low.colsum || !low.scales || low.act_scale == 0
                : node.kind == OpKind::kDenseAffineBf16 && !low.bf16) {
          return fail("missing low-precision weights");
        }
        break;
      }
      case OpKind::kConcatCols: {
        if (node.inputs.empty()) return fail("concat of nothing");
        int64_t total = 0;
        for (const int32_t input : node.inputs) total += nodes_[input].cols;
        if (total != node.cols) return fail("concat width mismatch");
        break;
      }
      case OpKind::kCrossLayer: {
        ATNN_RETURN_IF_ERROR(expect_inputs(4));
        const NodeDef& xl = nodes_[node.inputs[0]];
        const NodeDef& x0 = nodes_[node.inputs[1]];
        const NodeDef& w = nodes_[node.inputs[2]];
        const NodeDef& b = nodes_[node.inputs[3]];
        for (const NodeDef* x : {&xl, &x0}) {
          if (x->batch_rows != node.batch_rows || x->rows != node.rows ||
              x->cols != node.cols) {
            return fail("x_l/x0 shape mismatch");
          }
        }
        if (w.batch_rows || w.rows != node.cols || w.cols != 1) {
          return fail("weight must be [d,1]");
        }
        if (b.batch_rows || b.rows != 1 || b.cols != node.cols) {
          return fail("bias must be [1,d]");
        }
        break;
      }
    }
  }
  return Status::OK();
}

std::string Graph::ToText() const {
  std::ostringstream out;
  out << "graph: nodes=" << size() << " fields=" << num_fields_
      << " dense_cols=" << dense_cols_ << "\n";
  for (int32_t id = 0; id < size(); ++id) {
    const NodeDef& node = nodes_[id];
    out << "%" << id << " = " << OpKindName(node.kind);
    if (node.kind == OpKind::kConstant) {
      if (!node.label.empty()) out << " \"" << node.label << "\"";
    } else if (node.kind == OpKind::kEmbedLookup) {
      if (node.inputs.empty()) {
        out << (node.weights.s8 != nullptr ? "(s8[" : "(bf16[")
            << node.weights.rows << "x" << node.cols << "]";
      } else {
        out << "(%" << node.inputs[0];
      }
      out << ", field=" << node.field << ", hash=" << node.hash_buckets
          << ")";
    } else if (!node.inputs.empty()) {
      out << "(";
      for (size_t i = 0; i < node.inputs.size(); ++i) {
        if (i > 0) out << ", ";
        out << "%" << node.inputs[i];
      }
      if (node.kind == OpKind::kDenseAffine ||
          node.kind == OpKind::kDenseAffineS8 ||
          node.kind == OpKind::kDenseAffineBf16) {
        out << ", act=" << ActivationName(node.act);
      }
      out << ")";
    }
    out << " : [" << (node.batch_rows ? "B" : std::to_string(node.rows))
        << "x" << node.cols << "]";
    if (node.inplace) out << " inplace";
    out << "\n";
  }
  out << "output %" << output_ << "\n";
  return out.str();
}

}  // namespace atnn::nn::ir
