// Columnar (SoA) raw-value feature store — the batch-predict side of the
// columnar feature layer (DESIGN §11).
//
// Batched tree inference wants the value of ONE feature for MANY rows:
// per-tree, all rows in a block test the same root feature first, and the
// per-level gathers of a row block land close together when a feature's
// values are contiguous. A row-major FeatureMatrix gives the opposite
// layout, so the serving layer packs feature rows into a ColumnStore —
// a column-major arena with a fixed row capacity — and evaluates trees
// over ColumnBlock views of it (serve::FlatForest::predict_columnar).
//
// The store is plain preallocated memory: reshape() (cold) is the only
// allocation site, and put_row() on a reserved store is what the
// serving hot path uses, keeping the lint reachability proof clean.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/types.h"

namespace lumos::data {

/// A read-only view of `n_rows` consecutive rows across all columns of a
/// ColumnStore. `col(f)` is the contiguous value array for feature f,
/// already offset to the view's first row.
struct ColumnBlock {
  const double* base = nullptr;  ///< column 0 at the view's first row
  std::size_t stride = 0;        ///< row capacity of the owning store
  std::size_t n_rows = 0;
  std::size_t n_cols = 0;

  const double* col(std::size_t f) const noexcept {
    return base + f * stride;
  }

  /// Sub-view of rows [row_begin, row_begin + rows) of this block.
  ColumnBlock rows(std::size_t row_begin, std::size_t rows_count) const noexcept {
    return {base + row_begin, stride, rows_count, n_cols};
  }
};

/// Column-major double matrix with a fixed row capacity. Column f's
/// values occupy one contiguous run of `row_capacity` doubles; the first
/// `n` of them are meaningful when the caller has filled rows [0, n).
class ColumnStore {
 public:
  ColumnStore() = default;
  ColumnStore(std::size_t row_capacity, std::size_t cols) {
    reshape(row_capacity, cols);
  }

  /// (Re)allocates for `row_capacity` rows by `cols` columns. Cold path:
  /// call once at setup (or on model reload), never per batch.
  void reshape(std::size_t row_capacity, std::size_t cols) {
    cap_ = row_capacity;
    cols_ = cols;
    v_.assign(cap_ * cols_, 0.0);
  }

  std::size_t row_capacity() const noexcept { return cap_; }
  std::size_t cols() const noexcept { return cols_; }

  double* col(std::size_t f) noexcept { return v_.data() + f * cap_; }
  const double* col(std::size_t f) const noexcept {
    return v_.data() + f * cap_;
  }

  double at(std::size_t r, std::size_t f) const noexcept {
    return v_[f * cap_ + r];
  }

  /// Scatters one contiguous feature row into row `r` of the first
  /// row.size() columns. Allocation-free.
  void put_row(std::size_t r, std::span<const double> row) noexcept {
    for (std::size_t f = 0; f < row.size(); ++f) v_[f * cap_ + r] = row[f];
  }

  /// View of rows [row_begin, row_begin + n_rows).
  ColumnBlock block(std::size_t row_begin, std::size_t n_rows) const noexcept {
    return {v_.data() + row_begin, cap_, n_rows, cols_};
  }

  /// Transposes a row-major FeatureMatrix (row capacity = its row count).
  [[nodiscard]] static ColumnStore from_matrix(const ml::FeatureMatrix& x) {
    ColumnStore s(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) s.put_row(r, x.row(r));
    return s;
  }

 private:
  std::size_t cap_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> v_;
};

}  // namespace lumos::data
