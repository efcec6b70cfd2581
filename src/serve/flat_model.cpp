#include "serve/flat_model.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace lumos::serve {
namespace {

/// Appends one tree to `out` in adjacent-children order and returns its
/// root index. Works for any source node ordering: an explicit worklist
/// rewrites parent→child links as the pair slots are allocated.
std::uint32_t flatten_tree(const ml::GradientTree& tree,
                           std::vector<FlatNode>& out) {
  const auto& src = tree.nodes();
  const auto root = static_cast<std::uint32_t>(out.size());
  if (src.empty()) {
    // An unfit tree predicts 0.0; emit the equivalent single leaf.
    out.push_back(FlatNode{0.0, -1, 0});
    return root;
  }

  struct Pending {
    std::size_t src_index;
    std::uint32_t dst_index;
  };
  out.push_back(FlatNode{});
  std::vector<Pending> stack{{0, root}};
  while (!stack.empty()) {
    const Pending p = stack.back();
    stack.pop_back();
    const auto& n = src[p.src_index];
    if (n.feature < 0) {
      out[p.dst_index] = FlatNode::from(n, 0);
      continue;
    }
    const auto left_dst = static_cast<std::uint32_t>(out.size());
    LUMOS_ASSERT(left_dst < FlatNode::kChildMask - 1,
                 "flattened ensemble exceeds 2^31 nodes");
    out[p.dst_index] = FlatNode::from(n, left_dst);
    out.push_back(FlatNode{});
    out.push_back(FlatNode{});
    stack.push_back({static_cast<std::size_t>(n.left), left_dst});
    stack.push_back({static_cast<std::size_t>(n.right), left_dst + 1});
  }
  return root;
}

}  // namespace

FlatForest FlatForest::flatten(std::span<const ml::GradientTree> trees,
                               std::size_t first, std::size_t stride,
                               double base, double scale) {
  LUMOS_EXPECTS(stride >= 1, "FlatForest::flatten: stride must be >= 1");
  FlatForest f;
  f.base_ = base;
  f.scale_ = scale;
  std::size_t total_nodes = 0;
  for (std::size_t t = first; t < trees.size(); t += stride) {
    total_nodes += trees[t].nodes().empty() ? 1 : trees[t].nodes().size();
  }
  f.nodes_.reserve(total_nodes);
  for (std::size_t t = first; t < trees.size(); t += stride) {
    f.roots_.push_back(flatten_tree(trees[t], f.nodes_));
  }
  return f;
}

FlatForest FlatForest::flatten(const ml::GbdtRegressor& model) {
  return flatten(model.trees(), 0, 1, model.base(),
                 model.config().learning_rate);
}

double FlatForest::predict(std::span<const double> row) const noexcept {
  // A contiguous row is a one-row column block with stride 1: column f's
  // single value sits at row[f].
  const data::ColumnBlock block{row.data(), /*stride=*/1, /*n_rows=*/1,
                                row.size()};
  double acc = 0.0;
  eval_block(block, 0, 1, &acc);
  return acc;
}

void FlatForest::eval_block(const data::ColumnBlock& block, std::size_t row0,
                            std::size_t m, double* acc) const noexcept {
  for (std::size_t j = 0; j < m; ++j) acc[j] = base_;

  const FlatNode* nodes = nodes_.data();
  std::uint32_t cur[kColumnarRowBlock];
  for (const std::uint32_t root : roots_) {
    for (std::size_t j = 0; j < m; ++j) cur[j] = root;
    // Level-synchronous walk: one pass moves every still-internal row one
    // level down. Rows are independent, so the feature gathers of a pass
    // overlap; rows that reached a leaf park there (feature < 0).
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t j = 0; j < m; ++j) {
        const FlatNode& n = nodes[cur[j]];
        if (n.feature < 0) continue;
        const double v = block.col(static_cast<std::size_t>(n.feature))[row0 + j];
        const std::uint32_t left = n.left & FlatNode::kChildMask;
        const bool go_left = std::isnan(v)
                                 ? (n.left & FlatNode::kDefaultLeftBit) != 0U
                                 : v <= n.value;
        cur[j] = left + (go_left ? 0U : 1U);
        any = true;
      }
    }
    // Fold this tree's leaves in tree order — the accumulation order of
    // the pointer-tree predict(), so each row's result is bit-identical.
    for (std::size_t j = 0; j < m; ++j) acc[j] += scale_ * nodes[cur[j]].value;
  }
}

void FlatForest::predict_columnar(const data::ColumnBlock& block,
                                  std::span<double> out) const {
  LUMOS_EXPECTS(out.size() >= block.n_rows,
                "FlatForest::predict_columnar: one output slot per row");
  for (std::size_t j0 = 0; j0 < block.n_rows; j0 += kColumnarRowBlock) {
    const std::size_t m = std::min(kColumnarRowBlock, block.n_rows - j0);
    double acc[kColumnarRowBlock];
    eval_block(block, j0, m, acc);
    for (std::size_t j = 0; j < m; ++j) out[j0 + j] = acc[j];
  }
}

FlatClassifier FlatClassifier::flatten(const ml::GbdtClassifier& model) {
  FlatClassifier c;
  const int kc = model.n_classes();
  if (kc <= 0) return c;
  // One FlatForest per class over the interleaved [stage * kc + c] tree
  // layout, each folding its stages with class_scale.
  const double lr_scale = class_scale(model.config().learning_rate, kc);
  c.per_class_.reserve(static_cast<std::size_t>(kc));
  for (int cls = 0; cls < kc; ++cls) {
    c.per_class_.push_back(FlatForest::flatten(
        model.trees(), static_cast<std::size_t>(cls),
        static_cast<std::size_t>(kc),
        model.base()[static_cast<std::size_t>(cls)], lr_scale));
  }
  return c;
}

int FlatClassifier::predict(std::span<const double> row) const noexcept {
  if (per_class_.empty()) return 0;
  // First-max-wins argmax, matching GbdtClassifier::predict.
  int best = 0;
  double best_score = per_class_[0].predict(row);
  for (std::size_t c = 1; c < per_class_.size(); ++c) {
    const double s = per_class_[c].predict(row);
    if (s > best_score) {
      best_score = s;
      best = static_cast<int>(c);
    }
  }
  return best;
}

void FlatClassifier::predict_columnar(const data::ColumnBlock& block,
                                      std::span<int> out) const {
  LUMOS_EXPECTS(out.size() >= block.n_rows,
                "FlatClassifier::predict_columnar: one output slot per row");
  if (per_class_.empty()) {
    for (std::size_t r = 0; r < block.n_rows; ++r) out[r] = 0;
    return;
  }
  for (std::size_t j0 = 0; j0 < block.n_rows; j0 += kColumnarRowBlock) {
    const std::size_t m = std::min(kColumnarRowBlock, block.n_rows - j0);
    double best[kColumnarRowBlock];
    double score[kColumnarRowBlock];
    int best_class[kColumnarRowBlock];
    per_class_[0].eval_block(block, j0, m, best);
    for (std::size_t j = 0; j < m; ++j) best_class[j] = 0;
    // First-max-wins argmax across classes, matching predict().
    for (std::size_t c = 1; c < per_class_.size(); ++c) {
      per_class_[c].eval_block(block, j0, m, score);
      for (std::size_t j = 0; j < m; ++j) {
        if (score[j] > best[j]) {
          best[j] = score[j];
          best_class[j] = static_cast<int>(c);
        }
      }
    }
    for (std::size_t j = 0; j < m; ++j) out[j0 + j] = best_class[j];
  }
}

std::size_t FlatClassifier::n_nodes() const noexcept {
  std::size_t n = 0;
  for (const auto& f : per_class_) n += f.n_nodes();
  return n;
}

}  // namespace lumos::serve
