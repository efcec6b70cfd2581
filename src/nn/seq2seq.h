// Seq2Seq LSTM encoder-decoder (paper §5.2, Fig. 15; Sutskever et al.
// 2014). The encoder consumes a window of per-second feature vectors; the
// decoder, initialized with the encoder's final state, emits the predicted
// throughput for the next k time slots. Trained with teacher forcing and
// MSE loss; inference feeds predictions back autoregressively.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/dense.h"
#include "nn/lstm.h"

namespace lumos::nn {

/// One training/inference sample: an input window and the future targets.
struct SeqSample {
  std::vector<double> x;  ///< row-major (seq_len x input_dim) feature window
  std::vector<double> y;  ///< `out_len` future target values
};

struct Seq2SeqConfig {
  std::size_t input_dim = 1;
  std::size_t hidden = 64;    ///< paper uses 128
  std::size_t layers = 2;     ///< paper uses a two-layer encoder-decoder
  std::size_t seq_len = 20;   ///< encoder window (paper: 20)
  std::size_t out_len = 1;    ///< decoder horizon (paper: up to 20)
  std::size_t epochs = 30;    ///< paper: 2000 (GPU rig); scaled down
  std::size_t batch_size = 64;
  double lr = 1e-3;
  double clip_norm = 5.0;
  std::uint64_t seed = 42;
  bool verbose = false;
};

class Seq2Seq {
 public:
  explicit Seq2Seq(const Seq2SeqConfig& cfg);

  /// Trains on `samples` with teacher forcing; returns per-epoch mean loss.
  std::vector<double> fit(const std::vector<SeqSample>& samples);

  /// Autoregressive prediction of `out_len` future values for one window.
  std::vector<double> predict(const std::vector<double>& x_window) const;

  const Seq2SeqConfig& config() const noexcept { return cfg_; }

 private:
  struct StepCaches {
    // caches[layer][t]
    std::vector<std::vector<LSTMCache>> enc;
    std::vector<std::vector<LSTMCache>> dec;
    std::vector<Matrix> dec_in;    ///< decoder inputs per step (B x 1)
    std::vector<Matrix> preds;     ///< head outputs per step (B x 1)
  };

  /// Forward over a batch; fills caches; returns summed MSE numerator info
  /// via preds.
  void forward_batch(const std::vector<const SeqSample*>& batch,
                     StepCaches& caches, bool teacher_force);

  double backward_batch(const std::vector<const SeqSample*>& batch,
                        StepCaches& caches);

  std::vector<Param*> all_params();

  Seq2SeqConfig cfg_;
  Rng rng_;
  std::vector<LSTMCell> enc_layers_;
  std::vector<LSTMCell> dec_layers_;
  Dense head_;
  Adam opt_;
};

}  // namespace lumos::nn
