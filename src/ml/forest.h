// Random Forest (Breiman 2001): bagged gradient trees with per-node feature
// subsampling. One of the 3G/4G-era baselines the paper compares against
// (Alimpertis et al. 2019 [20]).
#pragma once

#include <cstdint>
#include <memory>

#include "ml/tree.h"
#include "ml/types.h"

namespace lumos::ml {

struct ForestConfig {
  std::size_t n_trees = 100;
  int max_depth = 12;
  std::size_t min_samples_leaf = 2;
  int n_bins = 64;
  std::size_t feature_subsample = 0;  ///< 0 = ceil(sqrt(d)) chosen at fit
  double bootstrap_fraction = 1.0;
  std::uint64_t seed = 7;
};

class RandomForestRegressor final : public Regressor {
 public:
  explicit RandomForestRegressor(ForestConfig cfg = {}) noexcept : cfg_(cfg) {}

  void fit(const FeatureMatrix& x, std::span<const double> y) override;
  [[nodiscard]] double predict(std::span<const double> row) const override;

  const ForestConfig& config() const noexcept { return cfg_; }

 private:
  ForestConfig cfg_;
  BinMapper mapper_;
  std::vector<GradientTree> trees_;
};

/// Classification via one-vs-rest probability forests: each class gets a
/// forest fit on 0/1 indicators; prediction is the argmax of the averaged
/// votes. Equivalent to majority voting over class-probability trees.
class RandomForestClassifier final : public Classifier {
 public:
  explicit RandomForestClassifier(ForestConfig cfg = {}) noexcept : cfg_(cfg) {}

  void fit(const FeatureMatrix& x, std::span<const int> y,
           int n_classes) override;
  [[nodiscard]] int predict(std::span<const double> row) const override;

  const ForestConfig& config() const noexcept { return cfg_; }

 private:
  ForestConfig cfg_;
  BinMapper mapper_;
  int n_classes_ = 0;
  // trees_[t * n_classes_ + c]: tree t's score for class c.
  std::vector<GradientTree> trees_;
};

}  // namespace lumos::ml
