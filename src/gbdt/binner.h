#ifndef ATNN_GBDT_BINNER_H_
#define ATNN_GBDT_BINNER_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace atnn::gbdt {

/// Quantile feature binner: maps each float column to small integer bins so
/// split finding can use histograms (the LightGBM-style approach). Fit on
/// training rows; thresholds are per-column upper bounds.
class FeatureBinner {
 public:
  /// Fits up to `max_bins` quantile bins per column of `features`
  /// ([rows, cols]). max_bins must be in [2, 256].
  static FeatureBinner Fit(const nn::Tensor& features, int max_bins);

  /// Bin index of a raw value for the given column.
  uint8_t Bin(size_t column, float value) const;

  /// Bins an entire matrix (column count must match the fitted one) into a
  /// row-major uint8 buffer.
  std::vector<uint8_t> BinMatrix(const nn::Tensor& features) const;

  size_t num_columns() const { return thresholds_.size(); }
  int num_bins(size_t column) const {
    return static_cast<int>(thresholds_[column].size()) + 1;
  }
 private:
  /// Per column, the upper bound of each bin but the last: bin b holds
  /// values <= thresholds_[column][b]; the last bin is unbounded.
  std::vector<std::vector<float>> thresholds_;
};

}  // namespace atnn::gbdt

#endif  // ATNN_GBDT_BINNER_H_
