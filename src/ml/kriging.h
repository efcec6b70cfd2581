// Ordinary Kriging (OK) geospatial interpolation — the analytical baseline
// of Chakraborty et al. 2017 [26] the paper compares against (Table 9,
// footnote 6: OK only applies to the pure location feature group L).
//
// Implementation: duplicate coordinates are aggregated to their mean value;
// an exponential variogram gamma(h) = nugget + sill*(1 - exp(-h/range)) is
// fit to the empirical semivariogram by weighted least squares on binned
// lags; prediction solves the standard OK system with a Lagrange
// multiplier over a capped set of support points.
#pragma once

#include <cstdint>

#include "ml/linalg.h"
#include "ml/types.h"

namespace lumos::ml {

struct KrigingConfig {
  std::size_t max_support = 300;  ///< cap on aggregated support points
  int variogram_bins = 15;
  std::uint64_t seed = 11;
};

class OrdinaryKriging final : public Regressor {
 public:
  explicit OrdinaryKriging(KrigingConfig cfg = {}) noexcept : cfg_(cfg) {}

  /// `x` must have exactly 2 columns (location coordinates).
  void fit(const FeatureMatrix& x, std::span<const double> y) override;
  [[nodiscard]] double predict(std::span<const double> row) const override;

  double sill() const noexcept { return sill_; }
  double range() const noexcept { return range_; }

 private:
  double variogram(double h) const noexcept;

  KrigingConfig cfg_;
  std::vector<double> px_, py_, pv_;  ///< support points and their values
  double nugget_ = 0.0;
  double sill_ = 1.0;
  double range_ = 1.0;
  double mean_value_ = 0.0;
  LuSolver lu_;
};

}  // namespace lumos::ml
