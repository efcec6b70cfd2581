// k-nearest-neighbors regressor/classifier over z-score standardized
// features — a classic 3G/4G prediction baseline (paper §6.3, Table 9).
#pragma once

#include <cstdint>

#include "ml/types.h"

namespace lumos::ml {

struct KnnConfig {
  std::size_t k = 10;
  /// Optional cap on stored training points (uniform subsample) to bound
  /// brute-force query cost; 0 = keep everything.
  std::size_t max_train = 0;
  /// Z-score the features before distance computation. The 3G/4G-era
  /// systems the paper baselines against operate on raw coordinates
  /// (distances dominated by the largest-scale feature); disable to
  /// emulate them.
  bool standardize = true;
  std::uint64_t seed = 3;
};

class KnnRegressor final : public Regressor {
 public:
  explicit KnnRegressor(KnnConfig cfg = {}) noexcept : cfg_(cfg) {}

  void fit(const FeatureMatrix& x, std::span<const double> y) override;
  [[nodiscard]] double predict(std::span<const double> row) const override;

 private:
  KnnConfig cfg_;
  FeatureMatrix x_;           ///< standardized training rows
  std::vector<double> y_;
  std::vector<double> mean_, inv_sd_;
};

class KnnClassifier final : public Classifier {
 public:
  explicit KnnClassifier(KnnConfig cfg = {}) noexcept : cfg_(cfg) {}

  void fit(const FeatureMatrix& x, std::span<const int> y,
           int n_classes) override;
  [[nodiscard]] int predict(std::span<const double> row) const override;

 private:
  KnnConfig cfg_;
  FeatureMatrix x_;
  std::vector<int> y_;
  int n_classes_ = 0;
  std::vector<double> mean_, inv_sd_;
};

}  // namespace lumos::ml
