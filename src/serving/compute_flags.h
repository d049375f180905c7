#ifndef ATNN_SERVING_COMPUTE_FLAGS_H_
#define ATNN_SERVING_COMPUTE_FLAGS_H_

#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "quant/quantized_generator.h"

namespace atnn::serving {

/// Resolved values of the compute flags shared by every CLI
/// (--atnn_kernel, --atnn_precision). The kernel backend is already
/// applied globally by ResolveComputeFlags; `backend_name` is the active
/// backend's display name for the CLI banner.
struct ComputeOptions {
  quant::Precision precision = quant::Precision::kFp32;
  std::string backend_name;
};

/// Registers the shared compute flags on `flags`. The precision flag's
/// help text differs per tool (the artifact each one reads or writes), so
/// callers pass it; the kernel help is identical everywhere.
void AddComputeFlags(FlagParser* flags, const std::string& precision_help);

/// Parses and validates the shared compute flags after FlagParser::Parse:
/// applies --atnn_kernel via nn::kernels::SetBackendFromString (so the
/// process-global backend is live on success), and parses --atnn_precision.
/// Any junk value yields InvalidArgument naming the flag — callers print it
/// and exit 2, exactly like a parse error.
StatusOr<ComputeOptions> ResolveComputeFlags(const FlagParser& flags);

}  // namespace atnn::serving

#endif  // ATNN_SERVING_COMPUTE_FLAGS_H_
