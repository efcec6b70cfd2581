// Histogram-based CART decision tree fit on gradient/hessian pairs.
// A single building block serves all tree ensembles in this library:
//   * plain regression tree: grad = y, hess = 1  (leaf = mean y)
//   * GDBT regression stage: grad = residual, hess = 1
//   * GDBT multiclass stage: grad/hess from the softmax loss (Newton leaf)
// Split gain is the standard XGBoost-style score
//   gain = GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/types.h"

namespace lumos::ml {

class BinnedMatrix;

/// Quantile-based feature binning shared by all trees of an ensemble.
/// NaN feature values are first-class citizens: fit() learns quantiles
/// from the finite values only, and bin() maps NaN to a dedicated
/// missing-value code (missing_code()) that trees route along a learned
/// default branch direction.
class BinMapper {
 public:
  BinMapper() = default;

  /// Learns up to `n_bins` bins per feature from quantiles of the
  /// non-NaN values of `x`.
  void fit(const FeatureMatrix& x, int n_bins);

  /// Bin code of a raw value for feature `f`; NaN maps to missing_code().
  std::uint16_t bin(std::size_t f, double v) const noexcept;

  /// The reserved code for missing (NaN) values: one past the last real
  /// bin, so histogram buffers need max_bins() + 1 slots.
  std::uint16_t missing_code() const noexcept {
    return static_cast<std::uint16_t>(max_bins_);
  }

  /// Upper boundary value of bin `b` for feature `f`: the split threshold
  /// "x <= threshold goes left" for a split after bin b.
  double upper_edge(std::size_t f, std::uint16_t b) const noexcept;

  /// Encodes a full matrix to row-major bin codes.
  [[nodiscard]] std::vector<std::uint16_t> encode(const FeatureMatrix& x) const;

  std::size_t n_features() const noexcept { return edges_.size(); }
  int max_bins() const noexcept { return max_bins_; }

  /// Per-feature cut points, exposed for tests (training determinism).
  const std::vector<std::vector<double>>& edges() const noexcept {
    return edges_;
  }

 private:
  std::vector<std::vector<double>> edges_;  ///< per-feature cut points
  int max_bins_ = 0;
};

struct TreeConfig {
  int max_depth = 6;
  std::size_t min_samples_leaf = 5;
  double lambda = 1.0;          ///< L2 regularization on leaf values
  double min_gain = 1e-12;      ///< minimum gain to accept a split
  std::size_t feature_subsample = 0;  ///< features tried per node; 0 = all
};

/// One fitted tree. Nodes are stored in a flat array; leaves have
/// feature == -1.
class GradientTree {
 public:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int bin = -1;  ///< split bin code; codes <= bin go left (mirrors threshold)
    int left = -1;
    int right = -1;
    double value = 0.0;  ///< leaf output
    /// Which branch a missing (NaN) value takes. Learned during fit():
    /// when the node's training rows contain missing values, both
    /// directions are scored and the better one wins (ties keep right,
    /// matching the historical NaN-comparison fallthrough); when they
    /// don't, the direction stays right.
    bool default_left = false;
  };

  /// Fits on pre-binned codes (row-major n x d, matching `mapper`).
  /// `grad` and `hess` have length n; `indices` selects the rows to train
  /// on (bootstrap sample for forests, all rows for boosting).
  /// `rng` is used for per-node feature subsampling when
  /// cfg.feature_subsample > 0.
  ///
  /// Large nodes spread the candidate-feature histogram loop across the
  /// global thread pool (inline when the fit is itself a pool task, as in
  /// core::Lumos5G::train); per-feature work is independent and the best
  /// split is reduced in fixed feature order, so the fitted tree is
  /// bit-identical for any LUMOS_THREADS setting. The node arrays are
  /// trimmed to their final size on return.
  void fit(const std::vector<std::uint16_t>& codes, const BinMapper& mapper,
           std::span<const double> grad, std::span<const double> hess,
           std::span<const std::size_t> indices, const TreeConfig& cfg,
           Rng* rng = nullptr);

  /// Columnar fit: the same algorithm over a pre-binned SoA store
  /// (ml::BinnedMatrix). The histogram build becomes a tight loop over one
  /// contiguous (often uint8) code column per candidate feature instead of
  /// a d-strided walk through row-major codes. Rows are accumulated in the
  /// same order as the row-major overload, per-feature work is reduced in
  /// fixed feature order, and the split scan is shared code — so the
  /// fitted tree is bit-identical to fit(codes, ...) on the same data at
  /// any LUMOS_THREADS setting (tests/test_columnar.cpp).
  void fit(const BinnedMatrix& binned, const BinMapper& mapper,
           std::span<const double> grad, std::span<const double> hess,
           std::span<const std::size_t> indices, const TreeConfig& cfg,
           Rng* rng = nullptr);

  /// Predicts from a raw feature row. A NaN value takes the split's
  /// learned default branch (Node::default_left) instead of the
  /// comparison fallthrough.
  [[nodiscard]] double predict(std::span<const double> row) const noexcept;

  /// Predicts from one row of pre-binned codes (length = n_features of the
  /// mapper used at fit time). Reaches exactly the same leaf as predict()
  /// on the raw row: a raw value satisfies `v <= upper_edge(f, bin)` iff
  /// its code satisfies `code <= bin`, and the missing code routes along
  /// the same default branch as a raw NaN. Used by the boosting loop to
  /// avoid re-binning every training row each round.
  [[nodiscard]] double predict_binned(std::span<const std::uint16_t> row_codes)
      const noexcept;

  /// Same leaf walk over one row of a columnar code store. Reaches the
  /// same leaf as predict_binned on the equivalent row-major codes; the
  /// boosting loops use it so the margin update never materializes
  /// row-major codes.
  [[nodiscard]] double predict_binned(const BinnedMatrix& binned,
                                      std::size_t row) const noexcept;

  /// Adds each split's gain to `gain_by_feature` (size = n_features).
  void accumulate_gain(std::span<double> gain_by_feature) const noexcept;

  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  bool empty() const noexcept { return nodes_.empty(); }

  /// Per-node split gains, aligned with nodes() (0 at leaves); exposed
  /// for tests (training determinism).
  const std::vector<double>& gains() const noexcept { return gains_; }

  /// The missing-value bin code this tree was fit against (needed by
  /// predict_binned).
  std::uint16_t missing_code() const noexcept { return missing_code_; }

 private:
  struct Split {
    int feature = -1;
    int bin = -1;
    double gain = 0.0;
    bool default_left = false;  ///< where the missing bin goes
  };

  /// Shared fit body. `Source` supplies the code layout: a histogram
  /// accumulator (per candidate feature, over an index range) and a
  /// single-code lookup (for partitioning). Both public fit overloads
  /// instantiate it in tree.cpp; the split scan, reduction order, and
  /// partition logic are one piece of code, which is what guarantees the
  /// row and columnar paths stay bit-identical.
  template <class Source>
  void fit_impl(const Source& src, const BinMapper& mapper,
                std::span<const double> grad, std::span<const double> hess,
                std::span<const std::size_t> indices, const TreeConfig& cfg,
                Rng* rng);

  std::vector<Node> nodes_;
  std::vector<double> gains_;  ///< gain of the split at each internal node
  /// Code that marks a missing value in pre-binned rows (the fitting
  /// mapper's missing_code()); kept so predict_binned can route it.
  std::uint16_t missing_code_ = std::numeric_limits<std::uint16_t>::max();
};

}  // namespace lumos::ml
