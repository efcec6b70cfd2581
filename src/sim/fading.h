// Stochastic channel components: slow log-normal shadowing (AR(1) in time)
// and per-second fast fading. Together these produce the heavy per-location
// throughput variability the paper quantifies (CV >= 50% at ~half of the
// geolocations, §4.1).
#pragma once

#include "common/rng.h"

namespace lumos::sim {

struct FadingConfig {
  double shadow_sigma = 0.24;  ///< std-dev of log-shadowing process
  double shadow_rho = 0.92;    ///< AR(1) coefficient per second
  double fast_sigma = 0.14;    ///< per-second log-normal fast fading
};

/// Temporally-correlated shadowing for one UE-panel link.
class ShadowingProcess {
 public:
  ShadowingProcess() = default;
  ShadowingProcess(const FadingConfig& cfg, Rng& rng) noexcept
      : cfg_(cfg), x_(rng.normal(0.0, cfg.shadow_sigma)) {}

  /// Advances one second and returns the multiplicative factor exp(x_t).
  double step(Rng& rng) noexcept {
    const double innovation_sd =
        cfg_.shadow_sigma * std::sqrt(1.0 - cfg_.shadow_rho * cfg_.shadow_rho);
    x_ = cfg_.shadow_rho * x_ + rng.normal(0.0, innovation_sd);
    return std::exp(x_);
  }

 private:
  FadingConfig cfg_;
  double x_ = 0.0;
};

/// Per-second i.i.d. fast-fading factor.
double fast_fading(const FadingConfig& cfg, Rng& rng) noexcept;

}  // namespace lumos::sim
