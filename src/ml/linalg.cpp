#include "ml/linalg.h"

#include <cmath>

namespace lumos::ml {

bool LuSolver::factorize(std::vector<double> a, std::size_t n) {
  n_ = n;
  lu_ = std::move(a);
  piv_.resize(n);
  ok_ = false;
  for (std::size_t i = 0; i < n; ++i) piv_[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: pick the largest magnitude in this column.
    std::size_t pivot = col;
    double best = std::fabs(lu_[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(lu_[r * n + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-14) return false;  // numerically singular
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_[pivot * n + c], lu_[col * n + c]);
      }
      std::swap(piv_[pivot], piv_[col]);
    }
    const double inv = 1.0 / lu_[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = lu_[r * n + col] * inv;
      lu_[r * n + col] = factor;
      for (std::size_t c = col + 1; c < n; ++c) {
        lu_[r * n + c] -= factor * lu_[col * n + c];
      }
    }
  }
  ok_ = true;
  return true;
}

void LuSolver::solve(std::vector<double>& b) const {
  const std::size_t n = n_;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[piv_[i]];
  // Forward substitution (unit lower-triangular L).
  for (std::size_t i = 1; i < n; ++i) {
    double s = x[i];
    for (std::size_t j = 0; j < i; ++j) s -= lu_[i * n + j] * x[j];
    x[i] = s;
  }
  // Back substitution (U).
  for (std::size_t i = n; i-- > 0;) {
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= lu_[i * n + j] * x[j];
    x[i] = s / lu_[i * n + i];
  }
  b = std::move(x);
}

}  // namespace lumos::ml
