#include "nn/ir/eval.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "nn/kernels.h"

namespace atnn::nn::ir {

namespace {

/// out = src unless they already alias (in-place step).
void CopyUnlessAliased(const float* src, float* out, int64_t count) {
  if (out != src && count > 0) {
    std::memcpy(out, src, static_cast<size_t>(count) * sizeof(float));
  }
}

}  // namespace

void EvalNodeInto(const NodeDef& def, std::span<const EvalInput> ins,
                  int64_t out_rows, float* out, void* workspace) {
  const kernels::KernelTable& kt = kernels::Kernels();
  const int64_t count = out_rows * def.cols;
  switch (def.kind) {
    case OpKind::kMatMul:
      kt.gemm(out_rows, ins[0].cols, ins[1].cols, ins[0].data, ins[1].data,
              out);
      break;
    case OpKind::kDenseAffine:
    case OpKind::kDenseAffineS8:
    case OpKind::kDenseAffineBf16: {
      // The GEMM of the weight format, then the fused bias+activation
      // epilogue, the kernel pair nn::DenseAffine issues for fp32.
      const LowPrecisionWeights& w = def.weights;
      if (def.kind == OpKind::kDenseAffine) {
        kt.gemm(out_rows, ins[0].cols, ins[1].cols, ins[0].data, ins[1].data,
                out);
      } else if (def.kind == OpKind::kDenseAffineS8) {
        // Each input row becomes 7-bit codes at the layer's static scale;
        // lanes past k hold the zero point 64, so the bytes stay defined.
        const int64_t k = ins[0].cols;
        const int64_t k4 = kernels::RoundUpK4(k);
        auto* codes = static_cast<uint8_t*>(workspace);
        const float inv_scale = 1.0f / w.act_scale;
        for (int64_t r = 0; r < out_rows; ++r) {
          uint8_t* row = codes + r * k4;
          kt.quantize_u8(k, inv_scale, ins[0].data + r * k, row);
          std::memset(row + k, 64, static_cast<size_t>(k4 - k));
        }
        kt.gemm_s8(out_rows, k4, def.cols, codes, w.s8, w.colsum, w.scales,
                   w.act_scale, out);
      } else {
        kt.gemm_bf16(out_rows, ins[0].cols, def.cols, ins[0].data, w.bf16,
                     out);
      }
      const float* bias = ins.back().data;
      switch (def.act) {
        case Activation::kIdentity:
          kt.bias_identity(out_rows, def.cols, bias, out);
          break;
        case Activation::kRelu:
          kt.bias_relu(out_rows, def.cols, bias, out);
          break;
        default:
          kt.bias_sigmoid(out_rows, def.cols, bias, out);
          break;
      }
      break;
    }
    case OpKind::kAdd:
      // nn::Add is ScratchCopy(a) + AddInPlace(b) == copy + kt.add.
      CopyUnlessAliased(ins[0].data, out, count);
      kt.add(count, ins[1].data, out);
      break;
    case OpKind::kAddBias:
      CopyUnlessAliased(ins[0].data, out, count);
      kt.bias_identity(out_rows, def.cols, ins[1].data, out);
      break;
    case OpKind::kScale:
      // nn::Scale is copy + Tensor::Scale == copy + kt.scale.
      CopyUnlessAliased(ins[0].data, out, count);
      kt.scale(count, def.alpha, out);
      break;
    case OpKind::kScaleRows: {
      CopyUnlessAliased(ins[0].data, out, count);
      const float* s = ins[1].data;
      for (int64_t r = 0; r < out_rows; ++r) {
        const float factor = s[r];
        float* row = out + r * def.cols;
        for (int64_t c = 0; c < def.cols; ++c) row[c] *= factor;
      }
      break;
    }
    case OpKind::kRelu:
      CopyUnlessAliased(ins[0].data, out, count);
      for (int64_t i = 0; i < count; ++i) out[i] = std::max(out[i], 0.0f);
      break;
    case OpKind::kSigmoid:
      CopyUnlessAliased(ins[0].data, out, count);
      for (int64_t i = 0; i < count; ++i) {
        out[i] = 1.0f / (1.0f + std::exp(-out[i]));
      }
      break;
    case OpKind::kTanh:
      CopyUnlessAliased(ins[0].data, out, count);
      for (int64_t i = 0; i < count; ++i) out[i] = std::tanh(out[i]);
      break;
    case OpKind::kLeakyRelu:
      CopyUnlessAliased(ins[0].data, out, count);
      for (int64_t i = 0; i < count; ++i) {
        if (out[i] < 0.0f) out[i] *= def.alpha;
      }
      break;
    case OpKind::kConcatCols: {
      int64_t offset = 0;
      for (const EvalInput& in : ins) {
        for (int64_t r = 0; r < out_rows; ++r) {
          std::copy(in.data + r * in.cols, in.data + (r + 1) * in.cols,
                    out + r * def.cols + offset);
        }
        offset += in.cols;
      }
      break;
    }
    case OpKind::kSliceCols:
      for (int64_t r = 0; r < out_rows; ++r) {
        const float* src = ins[0].data + r * ins[0].cols + def.slice_begin;
        std::copy(src, src + def.cols, out + r * def.cols);
      }
      break;
    case OpKind::kCrossLayer: {
      // The matmul, then scale_rows -> add_bias -> add in one pass. Every
      // dot is computed before any row of `out` is written, so `out` may
      // alias x_l.
      ATNN_CHECK(workspace != nullptr) << "cross_layer needs a dot workspace";
      auto* dots = static_cast<float*>(workspace);
      kt.gemm(out_rows, def.cols, 1, ins[0].data, ins[2].data, dots);
      kt.cross_epilogue(out_rows, def.cols, ins[1].data, dots, ins[3].data,
                        ins[0].data, out);
      break;
    }
    case OpKind::kConstant:
    case OpKind::kDenseInput:
    case OpKind::kEmbedLookup:
      ATNN_CHECK(false) << "EvalNodeInto on non-compute node "
                        << OpKindName(def.kind);
      break;
  }
}

}  // namespace atnn::nn::ir
