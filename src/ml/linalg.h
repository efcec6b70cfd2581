// Small dense linear-algebra helpers (LU with partial pivoting) used by the
// Ordinary Kriging baseline's system solve.
#pragma once

#include <cstddef>
#include <vector>

namespace lumos::ml {

/// LU factorization with partial pivoting of an n x n row-major matrix.
class LuSolver {
 public:
  LuSolver() = default;

  /// Factorizes `a` (n x n, row-major). Returns false if singular.
  bool factorize(std::vector<double> a, std::size_t n);

  /// Solves A x = b in-place; `b` has length n. Requires factorize() ok.
  void solve(std::vector<double>& b) const;

  std::size_t size() const noexcept { return n_; }
  bool ok() const noexcept { return ok_; }

 private:
  std::size_t n_ = 0;
  bool ok_ = false;
  std::vector<double> lu_;
  std::vector<std::size_t> piv_;
};

}  // namespace lumos::ml
