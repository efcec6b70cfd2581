#include "nn/seq2seq.h"

#include "common/contracts.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace lumos::nn {

Seq2Seq::Seq2Seq(const Seq2SeqConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), opt_(AdamConfig{
                                      .lr = cfg.lr,
                                      .beta1 = 0.9,
                                      .beta2 = 0.999,
                                      .eps = 1e-8,
                                      .clip_norm = cfg.clip_norm,
                                  }) {
  if (cfg_.layers == 0 || cfg_.hidden == 0 || cfg_.input_dim == 0 ||
      cfg_.seq_len == 0 || cfg_.out_len == 0) {
    throw std::invalid_argument("Seq2Seq: all dimensions must be nonzero");
  }
  enc_layers_.reserve(cfg_.layers);
  dec_layers_.reserve(cfg_.layers);
  for (std::size_t l = 0; l < cfg_.layers; ++l) {
    const std::size_t enc_in = l == 0 ? cfg_.input_dim : cfg_.hidden;
    const std::size_t dec_in = l == 0 ? 1 : cfg_.hidden;
    enc_layers_.emplace_back(enc_in, cfg_.hidden, rng_);
    dec_layers_.emplace_back(dec_in, cfg_.hidden, rng_);
  }
  head_ = Dense(cfg_.hidden, 1, rng_);
}

std::vector<Param*> Seq2Seq::all_params() {
  std::vector<Param*> ps;
  for (auto& l : enc_layers_) {
    for (Param* p : l.params()) ps.push_back(p);
  }
  for (auto& l : dec_layers_) {
    for (Param* p : l.params()) ps.push_back(p);
  }
  for (Param* p : head_.params()) ps.push_back(p);
  return ps;
}

void Seq2Seq::forward_batch(const std::vector<const SeqSample*>& batch,
                            StepCaches& caches, bool teacher_force) {
  const std::size_t B = batch.size();
  const std::size_t T = cfg_.seq_len;
  const std::size_t D = cfg_.input_dim;
  const std::size_t K = cfg_.out_len;
  const std::size_t L = cfg_.layers;

  caches.enc.assign(L, std::vector<LSTMCache>(T));
  caches.dec.assign(L, std::vector<LSTMCache>(K));
  caches.dec_in.assign(K, Matrix{});
  caches.preds.assign(K, Matrix{});

  // --- Encoder ---
  std::vector<LSTMState> state(L, LSTMState(B, cfg_.hidden));
  Matrix xt(B, D);
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t b = 0; b < B; ++b) {
      const auto& x = batch[b]->x;
      LUMOS_ASSERT(x.size() == T * D,
                   "Seq2Seq: cached sample length disagrees with (T, D)");
      for (std::size_t d = 0; d < D; ++d) xt(b, d) = x[t * D + d];
    }
    const Matrix* input = &xt;
    for (std::size_t l = 0; l < L; ++l) {
      LSTMState out;
      enc_layers_[l].forward(*input, state[l], out, caches.enc[l][t]);
      state[l] = std::move(out);
      input = &state[l].h;
    }
  }

  // --- Decoder (state initialized from encoder's final state) ---
  for (std::size_t t = 0; t < K; ++t) {
    Matrix& yin = caches.dec_in[t];
    yin.resize(B, 1);
    if (t == 0) {
      // Start token: zero (targets are standardized by the caller).
      yin.zero();
    } else if (teacher_force) {
      for (std::size_t b = 0; b < B; ++b) yin(b, 0) = batch[b]->y[t - 1];
    } else {
      for (std::size_t b = 0; b < B; ++b) yin(b, 0) = caches.preds[t - 1](b, 0);
    }
    const Matrix* input = &yin;
    for (std::size_t l = 0; l < L; ++l) {
      LSTMState out;
      dec_layers_[l].forward(*input, state[l], out, caches.dec[l][t]);
      state[l] = std::move(out);
      input = &state[l].h;
    }
    head_.forward_infer(state[L - 1].h, caches.preds[t]);
  }
}

double Seq2Seq::backward_batch(const std::vector<const SeqSample*>& batch,
                               StepCaches& caches) {
  const std::size_t B = batch.size();
  const std::size_t T = cfg_.seq_len;
  const std::size_t K = cfg_.out_len;
  const std::size_t L = cfg_.layers;
  const double inv_n = 1.0 / static_cast<double>(B * K);

  double loss = 0.0;

  // Per-layer gradients flowing backward in time through the decoder.
  std::vector<Matrix> dh_next(L, Matrix(B, cfg_.hidden));
  std::vector<Matrix> dc_next(L, Matrix(B, cfg_.hidden));

  for (std::size_t t = K; t-- > 0;) {
    // Loss gradient for this step's prediction.
    Matrix dpred(B, 1);
    for (std::size_t b = 0; b < B; ++b) {
      const double d = caches.preds[t](b, 0) - batch[b]->y[t];
      loss += d * d;
      dpred(b, 0) = 2.0 * d * inv_n;
    }

    // Head backward: input was the top decoder layer's h at step t.
    const LSTMCache& top = caches.dec[L - 1][t];
    Matrix top_h;
    hadamard(top.o, top.tanh_c, top_h);  // h = o .* tanh(c)
    Matrix dh_top;
    head_.backward_with_input(dpred, top_h, dh_top);

    // Propagate down the decoder stack at this timestep. `from_above` is
    // the gradient arriving at layer l's output h from the layer above
    // (or from the head at the top layer).
    Matrix from_above = std::move(dh_top);
    for (std::size_t l = L; l-- > 0;) {
      Matrix dh = dh_next[l];
      add_inplace(dh, from_above);
      Matrix dx, dh_prev, dc_prev;
      dec_layers_[l].backward(caches.dec[l][t], dh, dc_next[l], dx, dh_prev,
                              dc_prev);
      dh_next[l] = std::move(dh_prev);
      dc_next[l] = std::move(dc_prev);
      // The input to layer l was layer (l-1)'s h; at l == 0 it is the
      // teacher-forced token, whose gradient is dropped.
      from_above = std::move(dx);
    }
  }

  // The decoder's t==0 dh_prev/dc_prev are the gradients w.r.t. the
  // encoder's final state; continue BPTT through the encoder.
  for (std::size_t t = T; t-- > 0;) {
    Matrix dx_from_above;  // dL/d(input) emitted by the layer above at t
    for (std::size_t l = L; l-- > 0;) {
      Matrix dh = dh_next[l];
      if (l < L - 1) add_inplace(dh, dx_from_above);
      Matrix dx, dh_prev, dc_prev;
      enc_layers_[l].backward(caches.enc[l][t], dh, dc_next[l], dx, dh_prev,
                              dc_prev);
      dh_next[l] = std::move(dh_prev);
      dc_next[l] = std::move(dc_prev);
      dx_from_above = std::move(dx);
      // dx at l == 0 is the gradient w.r.t. raw features: unused.
    }
  }

  return loss * inv_n;
}

std::vector<double> Seq2Seq::fit(const std::vector<SeqSample>& samples) {
  if (samples.empty()) throw std::invalid_argument("Seq2Seq::fit: no samples");
  for (const auto& s : samples) {
    if (s.x.size() != cfg_.seq_len * cfg_.input_dim ||
        s.y.size() != cfg_.out_len) {
      throw std::invalid_argument("Seq2Seq::fit: sample shape mismatch");
    }
  }
  const auto params = all_params();
  opt_.reset(params);

  std::vector<double> epoch_losses;
  epoch_losses.reserve(cfg_.epochs);
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    rng_.shuffle(order);
    double total = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += cfg_.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + cfg_.batch_size);
      std::vector<const SeqSample*> batch;
      batch.reserve(end - start);
      for (std::size_t i = start; i < end; ++i) {
        batch.push_back(&samples[order[i]]);
      }
      StepCaches caches;
      forward_batch(batch, caches, /*teacher_force=*/true);
      total += backward_batch(batch, caches);
      opt_.step(params);
      ++batches;
    }
    const double avg = batches > 0 ? total / static_cast<double>(batches) : 0.0;
    epoch_losses.push_back(avg);
    if (cfg_.verbose) {
      std::printf("epoch %3zu  loss %.6f\n", epoch + 1, avg);
    }
  }
  return epoch_losses;
}

std::vector<double> Seq2Seq::predict(const std::vector<double>& x_window) const {
  if (x_window.size() != cfg_.seq_len * cfg_.input_dim) {
    throw std::invalid_argument("Seq2Seq::predict: window shape mismatch");
  }
  const std::size_t L = cfg_.layers;
  std::vector<LSTMState> state(L, LSTMState(1, cfg_.hidden));
  Matrix xt(1, cfg_.input_dim);
  for (std::size_t t = 0; t < cfg_.seq_len; ++t) {
    for (std::size_t d = 0; d < cfg_.input_dim; ++d) {
      xt(0, d) = x_window[t * cfg_.input_dim + d];
    }
    const Matrix* input = &xt;
    for (std::size_t l = 0; l < L; ++l) {
      LSTMState out;
      enc_layers_[l].forward_nocache(*input, state[l], out);
      state[l] = std::move(out);
      input = &state[l].h;
    }
  }
  std::vector<double> preds;
  preds.reserve(cfg_.out_len);
  Matrix yin(1, 1);
  yin(0, 0) = 0.0;
  Matrix out_val;
  for (std::size_t t = 0; t < cfg_.out_len; ++t) {
    const Matrix* input = &yin;
    for (std::size_t l = 0; l < L; ++l) {
      LSTMState out;
      dec_layers_[l].forward_nocache(*input, state[l], out);
      state[l] = std::move(out);
      input = &state[l].h;
    }
    head_.forward_infer(state[L - 1].h, out_val);
    preds.push_back(out_val(0, 0));
    yin(0, 0) = out_val(0, 0);
  }
  return preds;
}

}  // namespace lumos::nn
