// Adam optimizer (Kingma & Ba 2015) with optional global-norm gradient
// clipping.
#pragma once

#include <vector>

#include "nn/param.h"

namespace lumos::nn {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double clip_norm = 5.0;  ///< <=0 disables clipping
};

class Adam {
 public:
  explicit Adam(AdamConfig cfg = {}) noexcept : cfg_(cfg) {}

  /// Applies one update to every parameter and zeroes its gradient.
  void step(const std::vector<Param*>& params);

  /// Resets moment estimates and the step counter.
  void reset(const std::vector<Param*>& params);

  const AdamConfig& config() const noexcept { return cfg_; }

 private:
  AdamConfig cfg_;
  long t_ = 0;
};

}  // namespace lumos::nn
