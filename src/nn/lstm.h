// LSTM cell (Hochreiter & Schmidhuber 1997) with full backpropagation
// through time. Gate layout within the fused pre-activation matrix is
// [input | forget | candidate | output], i.e. 4*H columns.
#pragma once

#include <vector>

#include "nn/param.h"

namespace lumos::nn {

/// Hidden/cell state for a batch: both (B x H).
struct LSTMState {
  Matrix h;
  Matrix c;

  LSTMState() = default;
  LSTMState(std::size_t batch, std::size_t hidden)
      : h(batch, hidden), c(batch, hidden) {}
};

/// Per-timestep activations cached for the backward pass.
struct LSTMCache {
  Matrix x;       ///< input (B x D)
  Matrix h_prev;  ///< previous hidden (B x H)
  Matrix c_prev;  ///< previous cell (B x H)
  Matrix i, f, g, o;  ///< post-activation gates (B x H)
  Matrix c;       ///< new cell state (B x H)
  Matrix tanh_c;  ///< tanh(c) (B x H)
};

class LSTMCell {
 public:
  LSTMCell() = default;
  LSTMCell(std::size_t input_dim, std::size_t hidden_dim, Rng& rng);

  /// One step: consumes `x` (B x D) and `in` state, produces `out` state and
  /// fills `cache` for the backward pass.
  void forward(const Matrix& x, const LSTMState& in, LSTMState& out,
               LSTMCache& cache) const;

  /// Inference-only step; no cache is recorded.
  void forward_nocache(const Matrix& x, const LSTMState& in,
                       LSTMState& out) const;

  /// One BPTT step. `dh`/`dc` are dL/dh_t and dL/dc_t (already summed over
  /// output-head and next-step contributions). Accumulates parameter grads
  /// and emits gradients w.r.t. x, h_{t-1}, c_{t-1}.
  void backward(const LSTMCache& cache, const Matrix& dh, const Matrix& dc,
                Matrix& dx, Matrix& dh_prev, Matrix& dc_prev);

  std::vector<Param*> params();

 private:
  void gates(const Matrix& x, const Matrix& h_prev, Matrix& z) const;

  std::size_t hidden_ = 0;
  Param wx_;  ///< (4H x D)
  Param wh_;  ///< (4H x H)
  Param b_;   ///< (1 x 4H)
};

}  // namespace lumos::nn
