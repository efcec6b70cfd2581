// Flattened serving-time tree layout. Training-time GradientTree nodes are
// 48+ bytes and scattered across one vector per tree; for serving, every
// tree of an ensemble is re-packed into ONE contiguous array of 16-byte
// nodes laid out so that the two children of a split are always adjacent
// (right child = left child + 1). Traversal is a tight iterative loop: one
// compare, one add, one indexed load per level, with the whole ensemble
// walking a single cache-resident buffer instead of chasing per-tree heap
// allocations.
//
// Flattening is exact, not approximate: thresholds and leaf values keep
// their IEEE-754 bit patterns and the per-tree accumulation order matches
// the training-time predict() loops, so a FlatForest/FlatClassifier is
// bit-identical to the pointer-layout model it was built from (enforced by
// tests/test_serve.cpp).
//
// Two builders exist, and only two: flatten() from fitted pointer trees
// (Predictor::compile), and the artifact reader (serve::load_predictor),
// which reads the 16-byte node records save_bytes stored from flatten()'s
// arrays and checks each one. Both reach the node arrays through private
// constructors, so no unvalidated node array can reach the walk.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "data/column_store.h"
#include "ml/gbdt.h"
#include "ml/tree.h"

namespace lumos::serve {

class Predictor;  // named by the load_predictor friend declarations below

/// Rows evaluated together by the columnar block kernel: a block's
/// per-row cursors and accumulators live in fixed stack arrays, and each
/// tree is walked level-synchronously across the whole block (the rows'
/// traversals are independent, so the per-level gathers overlap instead
/// of serializing on one row's dependency chain).
inline constexpr std::size_t kColumnarRowBlock = 64;

/// One node, 16 bytes. Internal nodes: `value` is the split threshold,
/// `feature` >= 0, `left` encodes the left-child index in its low 31 bits
/// and the split's default-missing-direction in its top bit; the right
/// child is always at left-child index + 1. Leaves: `feature` == -1 and
/// `value` is the leaf output.
struct FlatNode {
  double value = 0.0;
  std::int32_t feature = -1;
  std::uint32_t left = 0;

  static constexpr std::uint32_t kDefaultLeftBit = 0x80000000U;
  static constexpr std::uint32_t kChildMask = 0x7FFFFFFFU;

  /// The flat form of a training-time node whose left child sits at flat
  /// index `left` (ignored for a leaf). `left` must fit kChildMask.
  static FlatNode from(const ml::GradientTree::Node& n,
                       std::uint32_t left) noexcept {
    if (n.feature < 0) return FlatNode{n.value, -1, 0};
    return FlatNode{n.threshold, n.feature,
                    left | (n.default_left ? kDefaultLeftBit : 0U)};
  }
};

static_assert(sizeof(FlatNode) == 16, "FlatNode must stay 16 bytes");

/// A contiguous, iteratively-traversed GBDT ensemble: base + scale *
/// tree_0 + scale * tree_1 + ..., folded in tree order.
class FlatForest {
 public:
  FlatForest() = default;

  /// Flattens every `stride`-th tree of `trees` starting at `first` (the
  /// interleaved [stage * n_classes + c] classifier layout selects one
  /// class with first = c, stride = n_classes; plain ensembles use
  /// first = 0, stride = 1). Tree order — and therefore floating-point
  /// accumulation order — is preserved.
  static FlatForest flatten(std::span<const ml::GradientTree> trees,
                            std::size_t first, std::size_t stride,
                            double base, double scale);

  /// Convenience: the full prediction path of a fitted model.
  static FlatForest flatten(const ml::GbdtRegressor& model);

  /// Bit-identical to the source ensemble's predict() on the same row:
  /// the row is walked as a one-row, stride-1 block through eval_block.
  [[nodiscard]] double predict(std::span<const double> row) const noexcept;

  /// Columnar batch predict: out[r] receives row r's prediction,
  /// bit-identical to predict() on the equivalent contiguous row (same
  /// per-tree accumulation order, same NaN default routing). Rows are
  /// evaluated in blocks of kColumnarRowBlock — per block, every tree is
  /// walked one level at a time across all rows, reading feature values
  /// from the block's contiguous columns. A sequential loop over the
  /// blocks with stack cursors only: it never allocates and never enters
  /// the thread pool (Server::poll's lanes are the serving path's one
  /// fan-out). Requires out.size() >= block.n_rows. A root in the lint
  /// hot-path reachability proof.
  void predict_columnar(const data::ColumnBlock& block,
                        std::span<double> out) const;

  std::size_t n_trees() const noexcept { return roots_.size(); }
  std::size_t n_nodes() const noexcept { return nodes_.size(); }

  // --- the stored form (serve::save_bytes writes exactly these) ---
  std::span<const FlatNode> nodes() const noexcept { return nodes_; }
  std::span<const std::uint32_t> roots() const noexcept { return roots_; }
  double base() const noexcept { return base_; }
  double scale() const noexcept { return scale_; }

 private:
  friend class FlatClassifier;
  friend Expected<Predictor> load_predictor(std::string_view bytes);

  /// Takes node arrays their builder has already checked: every split's
  /// feature is below the serving row's width and its children are
  /// forward, adjacent and inside `nodes`; every root is inside `nodes`.
  FlatForest(std::vector<FlatNode> nodes, std::vector<std::uint32_t> roots,
             double base, double scale) noexcept
      : nodes_(std::move(nodes)),
        roots_(std::move(roots)),
        base_(base),
        scale_(scale) {}

  /// The one flattened tree walk: evaluates rows [row0, row0 + m) of
  /// `block` into acc[0..m), m <= kColumnarRowBlock, level-synchronously
  /// (each pass moves every still-internal row one level down).
  void eval_block(const data::ColumnBlock& block, std::size_t row0,
                  std::size_t m, double* acc) const noexcept;

  std::vector<FlatNode> nodes_;
  std::vector<std::uint32_t> roots_;  ///< root node index per tree
  double base_ = 0.0;
  double scale_ = 1.0;
};

/// Argmax over per-class FlatForests; mirrors GbdtClassifier prediction
/// (first class wins ties, matching the training-time argmax scan).
class FlatClassifier {
 public:
  FlatClassifier() = default;

  static FlatClassifier flatten(const ml::GbdtClassifier& model);

  /// Bit-identical to the source classifier's predict().
  [[nodiscard]] int predict(std::span<const double> row) const noexcept;

  /// Columnar batch predict: out[r] is row r's class, bit-identical to
  /// predict() (per-class scores via the same block kernel, first-max-wins
  /// argmax), in the same sequential, allocation-free block loop as
  /// FlatForest::predict_columnar. Requires out.size() >= block.n_rows. A
  /// root in the lint hot-path reachability proof.
  void predict_columnar(const data::ColumnBlock& block,
                        std::span<int> out) const;

  int n_classes() const noexcept { return static_cast<int>(per_class_.size()); }
  std::size_t n_nodes() const noexcept;

  /// One forest per class, in class order (serve::save_bytes stores them);
  /// per_class()[c].predict(row) is class c's score, bit-identical to the
  /// source model's margin.
  std::span<const FlatForest> per_class() const noexcept { return per_class_; }

  /// Every class forest's per-tree scale: GbdtClassifier folds stages as
  /// base[c] + learning_rate * (k - 1) / k * tree(stage, c).
  static double class_scale(double learning_rate, int n_classes) noexcept {
    return learning_rate * static_cast<double>(n_classes - 1) /
           static_cast<double>(n_classes);
  }

 private:
  friend Expected<Predictor> load_predictor(std::string_view bytes);

  explicit FlatClassifier(std::vector<FlatForest> per_class) noexcept
      : per_class_(std::move(per_class)) {}

  std::vector<FlatForest> per_class_;
};

}  // namespace lumos::serve
