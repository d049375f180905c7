#include "nn/parameter.h"

#include <algorithm>
#include <unordered_map>

namespace atnn::nn {

namespace {

/// A parameter's leaf lives on the heap: it outlives every ArenaScope.
NodePtr MakeLeaf(const std::string& name, Tensor value) {
  NodePtr node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = true;
  node->is_parameter = true;
  node->op = "parameter:" + name;
  return node;
}

}  // namespace

Parameter::Parameter(std::string name, Tensor value)
    : name_(std::move(name)), node_(MakeLeaf(name_, std::move(value))) {}

Parameter::Parameter(const Parameter& other)
    : name_(other.name_),
      node_(other.node_ != nullptr ? MakeLeaf(name_, other.value())
                                   : nullptr) {}

int64_t Module::NumParameterElements() {
  int64_t total = 0;
  for (Parameter* param : Parameters()) total += param->numel();
  return total;
}

void ZeroAllGrads(const std::vector<Parameter*>& params) {
  for (Parameter* param : params) param->node()->ZeroGrad();
}

void SaveParameters(const std::vector<Parameter*>& params,
                    BinaryWriter* writer) {
  writer->WriteU64(params.size());
  for (const Parameter* param : params) {
    writer->WriteString(param->name());
    writer->WriteI64(param->rows());
    writer->WriteI64(param->cols());
    writer->WriteFloatSpan(param->value().span());
  }
}

Status LoadParameters(const std::vector<Parameter*>& params,
                      BinaryReader* reader) {
  uint64_t count = 0;
  ATNN_RETURN_IF_ERROR(reader->ReadU64(&count));
  if (count != params.size()) {
    return Status::Corruption("snapshot has " + std::to_string(count) +
                              " parameters, model expects " +
                              std::to_string(params.size()));
  }
  std::unordered_map<std::string, size_t> by_name;
  for (size_t i = 0; i < params.size(); ++i) {
    if (!by_name.emplace(params[i]->name(), i).second) {
      return Status::InvalidArgument("duplicate parameter name: " +
                                     params[i]->name());
    }
  }
  // Every record is read into staging first, so a snapshot that turns out
  // corrupt anywhere leaves every parameter as it was.
  std::vector<Tensor> staged(params.size());
  std::vector<bool> seen(params.size(), false);
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    int64_t rows = 0;
    int64_t cols = 0;
    std::vector<float> data;
    ATNN_RETURN_IF_ERROR(reader->ReadString(&name));
    ATNN_RETURN_IF_ERROR(reader->ReadI64(&rows));
    ATNN_RETURN_IF_ERROR(reader->ReadI64(&cols));
    ATNN_RETURN_IF_ERROR(reader->ReadFloatVector(&data));
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::Corruption("snapshot parameter not in model: " + name);
    }
    const size_t index = it->second;
    // With the count equal to the model's, a repeated name also means a
    // missing one.
    if (seen[index]) {
      return Status::Corruption("snapshot names parameter twice: " + name);
    }
    seen[index] = true;
    const Parameter* param = params[index];
    if (param->rows() != rows || param->cols() != cols) {
      return Status::Corruption("shape mismatch for " + name);
    }
    if (static_cast<int64_t>(data.size()) != param->value().numel()) {
      return Status::Corruption("value count mismatch for " + name);
    }
    staged[index] = Tensor(rows, cols, std::move(data));
  }
  if (!reader->AtEnd()) {
    return Status::Corruption("trailing bytes after snapshot payload");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value() = std::move(staged[i]);
  }
  return Status::OK();
}

Status CopyParameterValues(const std::vector<Parameter*>& src,
                           const std::vector<Parameter*>& dst) {
  if (src.size() != dst.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: " + std::to_string(src.size()) + " vs " +
        std::to_string(dst.size()));
  }
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i]->name() != dst[i]->name()) {
      return Status::InvalidArgument("parameter order mismatch at " +
                                     std::to_string(i) + ": " +
                                     src[i]->name() + " vs " +
                                     dst[i]->name());
    }
    if (src[i]->rows() != dst[i]->rows() ||
        src[i]->cols() != dst[i]->cols()) {
      return Status::InvalidArgument("shape mismatch for " + src[i]->name());
    }
  }
  // Validate-then-copy: a mismatch reported above leaves dst untouched.
  for (size_t i = 0; i < src.size(); ++i) {
    const Tensor& from = src[i]->value();
    Tensor& to = dst[i]->value();
    std::copy(from.row_ptr(0), from.row_ptr(0) + from.numel(),
              to.row_ptr(0));
  }
  return Status::OK();
}

}  // namespace atnn::nn
