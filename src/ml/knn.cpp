#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/rng.h"

namespace lumos::ml {
namespace {

void standardize_stats(const FeatureMatrix& x, std::vector<double>& mean,
                       std::vector<double>& inv_sd) {
  const std::size_t d = x.cols(), n = x.rows();
  mean.assign(d, 0.0);
  inv_sd.assign(d, 1.0);
  if (n == 0) return;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) mean[c] += x.at(r, c);
  }
  for (auto& m : mean) m /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      const double dv = x.at(r, c) - mean[c];
      var[c] += dv * dv;
    }
  }
  for (std::size_t c = 0; c < d; ++c) {
    const double sd = std::sqrt(var[c] / static_cast<double>(n));
    inv_sd[c] = sd > 1e-12 ? 1.0 / sd : 1.0;
  }
}

/// Indices of the k smallest squared distances from `q` to rows of `x`.
std::vector<std::size_t> k_nearest(const FeatureMatrix& x,
                                   std::span<const double> q, std::size_t k) {
  using Entry = std::pair<double, std::size_t>;  // (dist2, row)
  std::priority_queue<Entry> heap;               // max-heap keeps k smallest
  const std::size_t d = x.cols();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    double d2 = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = row[c] - q[c];
      d2 += diff * diff;
    }
    if (heap.size() < k) {
      heap.emplace(d2, r);
    } else if (d2 < heap.top().first) {
      heap.pop();
      heap.emplace(d2, r);
    }
  }
  std::vector<std::size_t> idx;
  idx.reserve(heap.size());
  while (!heap.empty()) {
    idx.push_back(heap.top().second);
    heap.pop();
  }
  return idx;
}

template <typename T>
void subsample_rows(FeatureMatrix& x, std::vector<T>& y, std::size_t cap,
                    std::uint64_t seed) {
  if (cap == 0 || x.rows() <= cap) return;
  Rng rng(seed);
  auto perm = rng.permutation(x.rows());
  perm.resize(cap);
  std::sort(perm.begin(), perm.end());
  FeatureMatrix nx(cap, x.cols());
  std::vector<T> ny(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    const auto src = x.row(perm[i]);
    std::copy(src.begin(), src.end(), nx.row(i).begin());
    ny[i] = y[perm[i]];
  }
  x = std::move(nx);
  y = std::move(ny);
}

}  // namespace

void KnnRegressor::fit(const FeatureMatrix& x, std::span<const double> y) {
  x_ = x;
  y_.assign(y.begin(), y.end());
  subsample_rows(x_, y_, cfg_.max_train, cfg_.seed);
  if (cfg_.standardize) {
    standardize_stats(x_, mean_, inv_sd_);
  } else {
    mean_.assign(x_.cols(), 0.0);
    inv_sd_.assign(x_.cols(), 1.0);
  }
  for (std::size_t r = 0; r < x_.rows(); ++r) {
    auto row = x_.row(r);
    for (std::size_t c = 0; c < x_.cols(); ++c) {
      row[c] = (row[c] - mean_[c]) * inv_sd_[c];
    }
  }
}

double KnnRegressor::predict(std::span<const double> row) const {
  if (x_.rows() == 0) return 0.0;
  std::vector<double> q(row.size());
  for (std::size_t c = 0; c < q.size(); ++c) {
    q[c] = (row[c] - mean_[c]) * inv_sd_[c];
  }
  const auto idx = k_nearest(x_, q, std::min(cfg_.k, x_.rows()));
  double s = 0.0;
  for (std::size_t i : idx) s += y_[i];
  return s / static_cast<double>(idx.size());
}

void KnnClassifier::fit(const FeatureMatrix& x, std::span<const int> y,
                        int n_classes) {
  n_classes_ = n_classes;
  x_ = x;
  y_.assign(y.begin(), y.end());
  subsample_rows(x_, y_, cfg_.max_train, cfg_.seed);
  if (cfg_.standardize) {
    standardize_stats(x_, mean_, inv_sd_);
  } else {
    mean_.assign(x_.cols(), 0.0);
    inv_sd_.assign(x_.cols(), 1.0);
  }
  for (std::size_t r = 0; r < x_.rows(); ++r) {
    auto row = x_.row(r);
    for (std::size_t c = 0; c < x_.cols(); ++c) {
      row[c] = (row[c] - mean_[c]) * inv_sd_[c];
    }
  }
}

int KnnClassifier::predict(std::span<const double> row) const {
  if (x_.rows() == 0 || n_classes_ == 0) return 0;
  std::vector<double> q(row.size());
  for (std::size_t c = 0; c < q.size(); ++c) {
    q[c] = (row[c] - mean_[c]) * inv_sd_[c];
  }
  const auto idx = k_nearest(x_, q, std::min(cfg_.k, x_.rows()));
  std::vector<int> votes(static_cast<std::size_t>(n_classes_), 0);
  for (std::size_t i : idx) ++votes[static_cast<std::size_t>(y_[i])];
  return static_cast<int>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

}  // namespace lumos::ml
