#include "nn/parameter.h"

#include <algorithm>
#include <unordered_map>

namespace atnn::nn {

Parameter::Parameter(std::string name, Tensor value)
    : name_(std::move(name)), node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = true;
  node_->is_parameter = true;
  node_->op = "parameter:" + name_;
}

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
  std::unordered_map<std::string, Parameter*> by_name;
  for (Parameter* param : params) {
    if (!by_name.emplace(param->name(), param).second) {
      return Status::InvalidArgument("duplicate parameter name: " +
                                     param->name());
    }
  }
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
    Parameter* param = it->second;
    if (param->rows() != rows || param->cols() != cols) {
      return Status::Corruption("shape mismatch for " + name);
    }
    if (static_cast<int64_t>(data.size()) != param->value().numel()) {
      return Status::Corruption("value count mismatch for " + name);
    }
    param->value() = Tensor(rows, cols, std::move(data));
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
