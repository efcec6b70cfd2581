// Columnar (SoA) pre-binned code store — the histogram-build side of the
// columnar feature layer (DESIGN §11).
//
// BinMapper::encode() produces row-major uint16 codes: the code for
// (row r, feature f) lives at codes[r * d + f], so a per-feature histogram
// pass strides through memory d*2 bytes at a time and touches one cache
// line per row. BinnedMatrix stores the same codes transposed — one
// contiguous array per feature — and narrows each column to uint8 when
// every code it holds (including the missing-value code, if the column has
// NaNs) fits: a histogram pass then reads 64 codes per cache line instead
// of one or two.
//
// The narrowing rule is a pure function of the stored data (max code in
// the column <= 255), so building the matrix twice from the same inputs
// yields byte-identical storage, and the training loops that consume it
// read codes in exactly the row order the row-major path uses — which is
// what makes columnar training bit-identical to the row path
// (tests/test_columnar.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "ml/types.h"

namespace lumos::ml {

class BinMapper;

/// Column-major bin codes with per-column uint8/uint16 width promotion.
/// Quantize once (build), then every tree of an ensemble trains against
/// the same contiguous columns.
class BinnedMatrix {
 public:
  BinnedMatrix() = default;

  /// Encodes `x` through `mapper` into per-feature columns. Column f is
  /// stored narrow (uint8) iff its largest code — the missing code, when
  /// the column contains NaNs — fits in a byte; otherwise it is promoted
  /// to uint16 (e.g. >255 quantile bins, or a NaN under a wide mapper).
  [[nodiscard]] static BinnedMatrix build(const BinMapper& mapper,
                                          const FeatureMatrix& x);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// True when feature f's column is stored as uint8.
  bool narrow(std::size_t f) const noexcept { return narrow_[f] != 0; }

  /// Contiguous code column for feature f; valid only for the stored
  /// width (narrow(f) selects which).
  const std::uint8_t* col8(std::size_t f) const noexcept {
    return pool8_.data() + offset_[f];
  }
  const std::uint16_t* col16(std::size_t f) const noexcept {
    return pool16_.data() + offset_[f];
  }

  /// Width-agnostic single-code access (tests, per-row traversal).
  std::uint16_t code(std::size_t r, std::size_t f) const noexcept {
    return narrow_[f] != 0 ? static_cast<std::uint16_t>(col8(f)[r])
                           : col16(f)[r];
  }

  /// The mapper's missing-value code at build time (routes NaN rows).
  std::uint16_t missing_code() const noexcept { return missing_code_; }

  /// Bytes held by the code pools.
  std::size_t code_bytes() const noexcept {
    return pool8_.size() + 2 * pool16_.size();
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::uint16_t missing_code_ = std::numeric_limits<std::uint16_t>::max();
  std::vector<std::uint8_t> narrow_;   ///< per-column width flag
  std::vector<std::size_t> offset_;    ///< per-column offset into its pool
  std::vector<std::uint8_t> pool8_;    ///< all narrow columns, concatenated
  std::vector<std::uint16_t> pool16_;  ///< all wide columns, concatenated
};

}  // namespace lumos::ml
