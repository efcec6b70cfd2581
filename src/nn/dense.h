// Fully-connected layer y = x W^T + b with optional activation, used as
// the Seq2Seq output head.
#pragma once

#include <vector>

#include "nn/param.h"

namespace lumos::nn {

class Dense {
 public:
  Dense() = default;
  Dense(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  /// Forward pass: x is (B x in), result (B x out). Caches x for backward.
  void forward(const Matrix& x, Matrix& y);

  /// Inference-only forward; does not record the backward cache.
  void forward_infer(const Matrix& x, Matrix& y) const;

  /// Backward: `dy` is dL/dy (B x out); accumulates weight grads, writes
  /// dL/dx to `dx`.
  void backward(const Matrix& dy, Matrix& dx);

  /// Backward against an explicitly supplied input (for layers applied
  /// several times per step, e.g. a decoder head unrolled over time).
  void backward_with_input(const Matrix& dy, const Matrix& x, Matrix& dx);

  std::vector<Param*> params();

 private:
  Param weight_;  ///< (out x in)
  Param bias_;    ///< (1 x out)
  Matrix x_cache_;
};

}  // namespace lumos::nn
