#ifndef ATNN_TESTS_CORE_TEST_HELPERS_H_
#define ATNN_TESTS_CORE_TEST_HELPERS_H_

#include <vector>

#include "common/macros.h"
#include "core/feature_adapter.h"
#include "data/tmall.h"
#include "nn/kernels.h"
#include "nn/layers.h"

namespace atnn::core::testing_helpers {

/// A tiny but learnable Tmall world for unit tests (seconds, not minutes).
inline data::TmallConfig TinyTmallConfig() {
  data::TmallConfig config;
  config.num_users = 300;
  config.num_items = 400;
  config.num_new_items = 120;
  config.num_interactions = 12000;
  config.attractiveness_sample = 64;
  config.seed = 20240601;
  return config;
}

/// Small tower so forward/backward stays cheap.
inline nn::TowerConfig TinyTowerConfig(nn::TowerKind kind) {
  nn::TowerConfig config;
  config.kind = kind;
  config.deep_dims = {32, 16};
  config.cross_layers = 2;
  config.output_dim = 12;
  return config;
}

/// Test-name suffix of a TowerKind parameter.
inline const char* TowerKindName(nn::TowerKind kind) {
  return kind == nn::TowerKind::kDeepCross ? "deep_cross" : "fully_connected";
}

/// Generates and normalizes the tiny dataset.
inline data::TmallDataset MakeNormalizedTinyDataset() {
  data::TmallDataset dataset = data::GenerateTmallDataset(TinyTmallConfig());
  NormalizeTmallInPlace(&dataset);
  return dataset;
}

/// The kernel tables this host can run: scalar, plus AVX2 on CPUs with
/// AVX2+FMA. A test that loops over them skips the AVX2 case elsewhere.
inline std::vector<nn::kernels::Backend> HostBackends() {
  std::vector<nn::kernels::Backend> backends = {nn::kernels::Backend::kScalar};
  if (nn::kernels::Avx2Supported()) {
    backends.push_back(nn::kernels::Backend::kAvx2);
  }
  return backends;
}

/// Dispatches one kernel table for a scope and restores the previous one.
class ScopedBackend {
 public:
  explicit ScopedBackend(nn::kernels::Backend backend)
      : previous_(nn::kernels::ActiveBackend()) {
    ATNN_CHECK(nn::kernels::SetBackend(backend).ok());
  }
  ~ScopedBackend() { (void)nn::kernels::SetBackend(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  nn::kernels::Backend previous_;
};

}  // namespace atnn::core::testing_helpers

#endif  // ATNN_TESTS_CORE_TEST_HELPERS_H_
