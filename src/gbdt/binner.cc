#include "gbdt/binner.h"

#include <algorithm>

#include "common/macros.h"

namespace atnn::gbdt {

FeatureBinner FeatureBinner::Fit(const nn::Tensor& features, int max_bins) {
  ATNN_CHECK(max_bins >= 2 && max_bins <= 256);
  ATNN_CHECK(features.rows() > 0);
  FeatureBinner binner;
  const auto cols = static_cast<size_t>(features.cols());
  binner.thresholds_.resize(cols);

  std::vector<float> column;
  for (size_t c = 0; c < cols; ++c) {
    column.assign(static_cast<size_t>(features.rows()), 0.0f);
    for (int64_t r = 0; r < features.rows(); ++r) {
      column[static_cast<size_t>(r)] = features.at(r, static_cast<int64_t>(c));
    }
    std::sort(column.begin(), column.end());
    column.erase(std::unique(column.begin(), column.end()), column.end());

    std::vector<float>& thresholds = binner.thresholds_[c];
    const size_t distinct = column.size();
    if (distinct <= static_cast<size_t>(max_bins)) {
      // One bin per distinct value; thresholds between consecutive values.
      for (size_t i = 0; i + 1 < distinct; ++i) {
        thresholds.push_back(column[i]);
      }
    } else {
      // Quantile cuts.
      for (int b = 1; b < max_bins; ++b) {
        const size_t idx = distinct * static_cast<size_t>(b) /
                           static_cast<size_t>(max_bins);
        const float cut = column[idx];
        if (thresholds.empty() || cut > thresholds.back()) {
          thresholds.push_back(cut);
        }
      }
    }
  }
  return binner;
}

uint8_t FeatureBinner::Bin(size_t column, float value) const {
  const std::vector<float>& thresholds = thresholds_[column];
  const auto it = std::lower_bound(thresholds.begin(), thresholds.end(),
                                   value);
  return static_cast<uint8_t>(it - thresholds.begin());
}

std::vector<uint8_t> FeatureBinner::BinMatrix(
    const nn::Tensor& features) const {
  ATNN_CHECK_EQ(static_cast<size_t>(features.cols()), num_columns());
  std::vector<uint8_t> binned(
      static_cast<size_t>(features.rows()) * num_columns());
  for (int64_t r = 0; r < features.rows(); ++r) {
    const float* row = features.row_ptr(r);
    uint8_t* out = &binned[static_cast<size_t>(r) * num_columns()];
    for (size_t c = 0; c < num_columns(); ++c) {
      out[c] = Bin(c, row[c]);
    }
  }
  return binned;
}

}  // namespace atnn::gbdt
