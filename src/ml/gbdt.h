// Gradient-boosted decision trees (Friedman 2001) — the paper's primary
// classical model (§5.2 "GDBT"). Regression boosts squared error;
// classification boosts the multiclass softmax cross-entropy with Newton
// leaf values. The regressor reports per-feature global gain importance
// (Fig. 22).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/tree.h"
#include "ml/types.h"

namespace lumos::ml {

struct GbdtConfig {
  std::size_t n_estimators = 350;  ///< paper uses 8000; scaled for CPU budget
  int max_depth = 8;               ///< paper: depth 8
  double learning_rate = 0.07;     ///< paper: 0.01 with 8000 trees
  std::size_t min_samples_leaf = 3;
  double lambda = 1.0;
  int n_bins = 128;
  double subsample = 1.0;          ///< stochastic GBM row fraction
  std::uint64_t seed = 13;
};

class GbdtRegressor final : public Regressor {
 public:
  explicit GbdtRegressor(GbdtConfig cfg = {}) noexcept : cfg_(cfg) {}

  void fit(const FeatureMatrix& x, std::span<const double> y) override;
  [[nodiscard]] double predict(std::span<const double> row) const override;

  /// Normalized total split gain per feature (sums to 1); Fig. 22.
  [[nodiscard]] std::vector<double> feature_importance() const;

  const GbdtConfig& config() const noexcept { return cfg_; }

  // --- fitted-state access for flattening (serve::FlatForest) and tests ---
  const BinMapper& mapper() const noexcept { return mapper_; }
  double base() const noexcept { return base_; }
  const std::vector<GradientTree>& trees() const noexcept { return trees_; }
  std::size_t n_features() const noexcept { return n_features_; }

 private:
  GbdtConfig cfg_;
  BinMapper mapper_;
  double base_ = 0.0;
  std::vector<GradientTree> trees_;
  std::size_t n_features_ = 0;
};

class GbdtClassifier final : public Classifier {
 public:
  explicit GbdtClassifier(GbdtConfig cfg = {}) noexcept : cfg_(cfg) {}

  void fit(const FeatureMatrix& x, std::span<const int> y,
           int n_classes) override;
  [[nodiscard]] int predict(std::span<const double> row) const override;

  /// Per-class raw scores (pre-softmax margins).
  [[nodiscard]] std::vector<double> decision_function(
      std::span<const double> row) const;

  const GbdtConfig& config() const noexcept { return cfg_; }

  // --- fitted-state access for flattening (serve::FlatClassifier) and tests ---
  const BinMapper& mapper() const noexcept { return mapper_; }
  int n_classes() const noexcept { return n_classes_; }
  const std::vector<double>& base() const noexcept { return base_; }
  /// trees()[stage * n_classes() + c] is stage `stage`'s tree for class c.
  const std::vector<GradientTree>& trees() const noexcept { return trees_; }
  std::size_t n_features() const noexcept { return n_features_; }

 private:
  /// Class `c`'s raw score: its prior plus its trees, in stage order.
  double margin(std::size_t c, std::span<const double> row) const;

  GbdtConfig cfg_;
  BinMapper mapper_;
  int n_classes_ = 0;
  std::vector<double> base_;  ///< per-class prior log-odds
  // trees_[stage * n_classes_ + c]
  std::vector<GradientTree> trees_;
  std::size_t n_features_ = 0;
};

}  // namespace lumos::ml
