#include "serving/compute_flags.h"

#include "nn/kernels.h"

namespace atnn::serving {

void AddComputeFlags(FlagParser* flags, const std::string& precision_help) {
  flags->AddString("atnn_kernel", "auto",
                   "compute backend: auto | scalar | avx2");
  flags->AddString("atnn_precision", "fp32", precision_help);
}

StatusOr<ComputeOptions> ResolveComputeFlags(const FlagParser& flags) {
  ComputeOptions options;
  ATNN_RETURN_IF_ERROR(
      nn::kernels::SetBackendFromString(flags.GetString("atnn_kernel")));
  options.backend_name =
      nn::kernels::BackendName(nn::kernels::ActiveBackend());
  ATNN_ASSIGN_OR_RETURN(
      options.precision,
      quant::ParsePrecision(flags.GetString("atnn_precision")));
  return options;
}

}  // namespace atnn::serving
