#include "ml/kriging.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/parallel.h"
#include "common/rng.h"

namespace lumos::ml {

void OrdinaryKriging::fit(const FeatureMatrix& x, std::span<const double> y) {
  px_.clear();
  py_.clear();
  pv_.clear();
  if (x.rows() == 0) {
    // Empty training set: degrade to the (zero) global mean instead of
    // rejecting — the column check below cannot even run on a default
    // FeatureMatrix whose width is still 0.
    mean_value_ = 0.0;
    return;
  }
  if (x.cols() != 2) {
    // Fit-time configuration validation, not the serving path.
    // lumos-lint: allow(throw-on-query-path) fit() rejects a malformed design matrix
    throw std::invalid_argument(
        "OrdinaryKriging: expects exactly 2 location columns (group L)");
  }

  // Aggregate duplicate coordinates to their mean (grid cells repeat a lot).
  std::map<std::pair<double, double>, std::pair<double, std::size_t>> agg;
  double total = 0.0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    auto& slot = agg[{x.at(r, 0), x.at(r, 1)}];
    slot.first += y[r];
    ++slot.second;
    total += y[r];
  }
  mean_value_ = x.rows() > 0 ? total / static_cast<double>(x.rows()) : 0.0;

  for (const auto& [key, val] : agg) {
    px_.push_back(key.first);
    py_.push_back(key.second);
    pv_.push_back(val.first / static_cast<double>(val.second));
  }

  // Cap support size for a tractable solve.
  if (px_.size() > cfg_.max_support) {
    Rng rng(cfg_.seed);
    auto perm = rng.permutation(px_.size());
    perm.resize(cfg_.max_support);
    std::sort(perm.begin(), perm.end());
    std::vector<double> nx, ny, nv;
    nx.reserve(perm.size());
    ny.reserve(perm.size());
    nv.reserve(perm.size());
    for (std::size_t i : perm) {
      nx.push_back(px_[i]);
      ny.push_back(py_[i]);
      nv.push_back(pv_[i]);
    }
    px_ = std::move(nx);
    py_ = std::move(ny);
    pv_ = std::move(nv);
  }

  const std::size_t m = px_.size();
  if (m < 3) {
    // Too few distinct support points for a variogram: degrade to the
    // global mean (predict() checks px_).
    px_.clear();
    py_.clear();
    pv_.clear();
    return;
  }

  // Empirical semivariogram on binned lags. Both O(m^2) pair sweeps are
  // chunked over the pool with parallel_reduce: the bin accumulators are
  // combined in fixed chunk order, so the fit is bit-identical for any
  // LUMOS_THREADS setting.
  double max_h = parallel_reduce(
      0, m, 16, 0.0,
      [&](std::size_t ib, std::size_t ie) {
        double local = 0.0;
        for (std::size_t i = ib; i < ie; ++i) {
          for (std::size_t j = i + 1; j < m; ++j) {
            local =
                std::max(local, std::hypot(px_[i] - px_[j], py_[i] - py_[j]));
          }
        }
        return local;
      },
      [](double a, double b) { return std::max(a, b); });
  if (max_h <= 0.0) max_h = 1.0;
  const auto bins = static_cast<std::size_t>(cfg_.variogram_bins);
  struct GammaAcc {
    std::vector<double> sum;
    std::vector<std::size_t> cnt;
  };
  const auto acc = parallel_reduce(
      0, m, 16, GammaAcc{std::vector<double>(bins, 0.0),
                         std::vector<std::size_t>(bins, 0)},
      [&](std::size_t ib, std::size_t ie) {
        GammaAcc local{std::vector<double>(bins, 0.0),
                       std::vector<std::size_t>(bins, 0)};
        for (std::size_t i = ib; i < ie; ++i) {
          for (std::size_t j = i + 1; j < m; ++j) {
            const double h = std::hypot(px_[i] - px_[j], py_[i] - py_[j]);
            auto b =
                static_cast<std::size_t>(h / max_h * static_cast<double>(bins));
            if (b >= bins) b = bins - 1;
            const double diff = pv_[i] - pv_[j];
            local.sum[b] += 0.5 * diff * diff;
            ++local.cnt[b];
          }
        }
        return local;
      },
      [&](GammaAcc a, GammaAcc b) {
        for (std::size_t i = 0; i < bins; ++i) {
          a.sum[i] += b.sum[i];
          a.cnt[i] += b.cnt[i];
        }
        return a;
      });
  const std::vector<double>& gamma_sum = acc.sum;
  const std::vector<std::size_t>& gamma_cnt = acc.cnt;

  // Method-of-moments fit of the exponential model: range from the lag
  // where the empirical curve reaches ~95% of its plateau; sill from the
  // plateau level; nugget from the first bin.
  double plateau = 0.0;
  std::size_t filled = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    if (gamma_cnt[b] > 0) {
      plateau += gamma_sum[b] / static_cast<double>(gamma_cnt[b]);
      ++filled;
    }
  }
  plateau = filled > 0 ? plateau / static_cast<double>(filled) : 1.0;
  nugget_ = gamma_cnt[0] > 0
                ? std::min(plateau * 0.5,
                           gamma_sum[0] / static_cast<double>(gamma_cnt[0]))
                : 0.0;
  sill_ = std::max(1e-9, plateau - nugget_);
  range_ = max_h / 3.0;  // effective range ~ 3x exponential parameter
  if (range_ <= 0.0) range_ = 1.0;

  // Assemble and factorize the OK matrix:
  // [ Gamma  1 ] [w]   [gamma(q)]
  // [ 1^T    0 ] [mu] = [   1    ]
  const std::size_t nsys = m + 1;
  std::vector<double> a(nsys * nsys, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double h = std::hypot(px_[i] - px_[j], py_[i] - py_[j]);
      a[i * nsys + j] = variogram(h);
    }
    a[i * nsys + m] = 1.0;
    a[m * nsys + i] = 1.0;
  }
  if (!lu_.factorize(std::move(a), nsys)) {
    // Singular system (e.g. colinear layout): fall back to mean prediction.
    px_.clear();
  }
}

double OrdinaryKriging::variogram(double h) const noexcept {
  if (h <= 0.0) return 0.0;
  return nugget_ + sill_ * (1.0 - std::exp(-h / range_));
}

double OrdinaryKriging::predict(std::span<const double> row) const {
  const std::size_t m = px_.size();
  if (m == 0 || row.size() < 2) return mean_value_;
  std::vector<double> rhs(m + 1);
  for (std::size_t i = 0; i < m; ++i) {
    rhs[i] = variogram(std::hypot(px_[i] - row[0], py_[i] - row[1]));
  }
  rhs[m] = 1.0;
  lu_.solve(rhs);
  double pred = 0.0;
  for (std::size_t i = 0; i < m; ++i) pred += rhs[i] * pv_[i];
  return pred;
}

}  // namespace lumos::ml
