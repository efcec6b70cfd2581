#include "ml/gbdt.h"

#include "common/contracts.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "ml/binned.h"

namespace lumos::ml {
namespace {

std::vector<std::size_t> row_sample(std::size_t n, double fraction, Rng& rng) {
  if (n == 0) return {};  // never fabricate an index into an empty matrix
  if (fraction >= 1.0) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    return idx;
  }
  const auto k = static_cast<std::size_t>(
      std::max(1.0, fraction * static_cast<double>(n)));
  auto perm = rng.permutation(n);
  perm.resize(k);
  return perm;
}

std::vector<double> normalized_gains(const std::vector<GradientTree>& trees,
                                     std::size_t n_features) {
  std::vector<double> gains(n_features, 0.0);
  for (const auto& t : trees) t.accumulate_gain(gains);
  const double total = std::accumulate(gains.begin(), gains.end(), 0.0);
  if (total > 0.0) {
    for (auto& g : gains) g /= total;
  }
  return gains;
}

}  // namespace

void GbdtRegressor::fit(const FeatureMatrix& x, std::span<const double> y) {
  LUMOS_EXPECTS(y.size() == x.rows(),
                "GbdtRegressor::fit: one target per row required");
  n_features_ = x.cols();
  trees_.clear();
  base_ = 0.0;
  const std::size_t n = x.rows();
  if (n == 0) return;  // empty training set: predict the 0 base margin

  mapper_.fit(x, cfg_.n_bins);
  // Quantize once into the columnar store; every boosting round reuses the
  // same contiguous code columns for its histogram builds and its margin
  // update (bit-identical to the old row-major code path — see
  // tests/test_columnar.cpp).
  const auto binned = BinnedMatrix::build(mapper_, x);

  for (double v : y) base_ += v;
  base_ /= static_cast<double>(n);

  std::vector<double> pred(n, base_);
  std::vector<double> residual(n);
  std::vector<double> hess(n, 1.0);

  TreeConfig tc;
  tc.max_depth = cfg_.max_depth;
  tc.min_samples_leaf = cfg_.min_samples_leaf;
  tc.lambda = cfg_.lambda;

  Rng rng(cfg_.seed);
  trees_.assign(cfg_.n_estimators, {});
  for (auto& tree : trees_) {
    for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - pred[i];
    const auto idx = row_sample(n, cfg_.subsample, rng);
    tree.fit(binned, mapper_, residual, hess, idx, tc, &rng);
    // Margin update on the pre-binned columns: reaches the same leaves as
    // re-traversing the raw rows, without re-binning every round. Rows are
    // independent, so chunking across the pool keeps results identical.
    parallel_for(0, n, 2048, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        pred[i] += cfg_.learning_rate * tree.predict_binned(binned, i);
      }
    });
  }
}

double GbdtRegressor::predict(std::span<const double> row) const {
  LUMOS_EXPECTS(trees_.empty() || row.size() == n_features_,
                "GbdtRegressor::predict: row width differs from training");
  double s = base_;
  for (const auto& t : trees_) s += cfg_.learning_rate * t.predict(row);
  return s;
}

std::vector<double> GbdtRegressor::feature_importance() const {
  return normalized_gains(trees_, n_features_);
}

void GbdtClassifier::fit(const FeatureMatrix& x, std::span<const int> y,
                         int n_classes) {
  LUMOS_EXPECTS(y.size() == x.rows(),
                "GbdtClassifier::fit: one label per row required");
  LUMOS_EXPECTS(n_classes >= 1, "GbdtClassifier::fit: n_classes must be >= 1");
  n_classes_ = n_classes;
  n_features_ = x.cols();
  trees_.clear();
  const std::size_t n = x.rows();
  const auto kc = static_cast<std::size_t>(n_classes);

  // Prior log-probabilities as the initial margin.
  base_.assign(kc, 0.0);
  std::vector<double> counts(kc, 0.0);
  for (int c : y) counts[static_cast<std::size_t>(c)] += 1.0;
  for (std::size_t c = 0; c < kc; ++c) {
    const double p =
        std::max(1e-9, counts[c] / std::max<double>(1.0, static_cast<double>(n)));
    base_[c] = std::log(p);
  }
  if (n == 0) return;  // empty training set: predict the prior argmax

  mapper_.fit(x, cfg_.n_bins);
  const auto binned = BinnedMatrix::build(mapper_, x);

  // margins[i * kc + c]
  std::vector<double> margin(n * kc);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < kc; ++c) margin[i * kc + c] = base_[c];
  }

  std::vector<double> grad(n), hess(n);
  TreeConfig tc;
  tc.max_depth = cfg_.max_depth;
  tc.min_samples_leaf = cfg_.min_samples_leaf;
  tc.lambda = cfg_.lambda;

  Rng rng(cfg_.seed);
  trees_.assign(cfg_.n_estimators * kc, {});
  for (std::size_t stage = 0; stage < cfg_.n_estimators; ++stage) {
    const auto idx = row_sample(n, cfg_.subsample, rng);
    for (std::size_t c = 0; c < kc; ++c) {
      // Softmax probabilities and the class-c gradient/hessian. Each row
      // writes only its own grad/hess slot, so the chunks are independent.
      parallel_for(0, n, 1024, [&](std::size_t rb, std::size_t re) {
        std::vector<double> prob(kc);
        for (std::size_t i = rb; i < re; ++i) {
          double mx = margin[i * kc];
          for (std::size_t k = 1; k < kc; ++k) {
            mx = std::max(mx, margin[i * kc + k]);
          }
          double z = 0.0;
          for (std::size_t k = 0; k < kc; ++k) {
            prob[k] = std::exp(margin[i * kc + k] - mx);
            z += prob[k];
          }
          const double p = prob[c] / z;
          const double target = y[i] == static_cast<int>(c) ? 1.0 : 0.0;
          grad[i] = target - p;            // negative gradient
          hess[i] = std::max(1e-9, p * (1.0 - p));
        }
      });
      GradientTree& tree = trees_[stage * kc + c];
      tree.fit(binned, mapper_, grad, hess, idx, tc, &rng);
      const double lr_scale =
          cfg_.learning_rate * static_cast<double>(kc - 1) /
          static_cast<double>(kc);
      parallel_for(0, n, 2048, [&](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i) {
          margin[i * kc + c] += lr_scale * tree.predict_binned(binned, i);
        }
      });
    }
  }
}

double GbdtClassifier::margin(std::size_t c,
                              std::span<const double> row) const {
  const auto kc = static_cast<std::size_t>(n_classes_);
  const double lr_scale = cfg_.learning_rate *
                          static_cast<double>(n_classes_ - 1) /
                          static_cast<double>(n_classes_);
  double score = base_[c];
  for (std::size_t t = c; t < trees_.size(); t += kc) {
    score += lr_scale * trees_[t].predict(row);
  }
  return score;
}

std::vector<double> GbdtClassifier::decision_function(
    std::span<const double> row) const {
  std::vector<double> score(base_.size());
  for (std::size_t c = 0; c < score.size(); ++c) score[c] = margin(c, row);
  return score;
}

int GbdtClassifier::predict(std::span<const double> row) const {
  if (n_classes_ == 0) return 0;
  // The argmax of decision_function without building its vector: a later
  // class wins only on a strictly larger margin, so the first maximum
  // wins, as with std::max_element.
  int label = 0;
  double best = margin(0, row);
  for (int c = 1; c < n_classes_; ++c) {
    const double score = margin(static_cast<std::size_t>(c), row);
    if (best < score) {
      best = score;
      label = c;
    }
  }
  return label;
}

}  // namespace lumos::ml
