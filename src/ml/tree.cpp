#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/contracts.h"
#include "common/parallel.h"
#include "ml/binned.h"

namespace lumos::ml {

void BinMapper::fit(const FeatureMatrix& x, int n_bins) {
  max_bins_ = n_bins;
  const std::size_t d = x.cols();
  const std::size_t n = x.rows();
  edges_.assign(d, {});
  if (n == 0) return;
  std::vector<double> col;
  col.reserve(n);
  for (std::size_t f = 0; f < d; ++f) {
    // Quantiles come from the finite values only; NaN is not orderable
    // (sorting it is UB via strict-weak-ordering violation) and gets its
    // own dedicated code in bin().
    col.clear();
    for (std::size_t r = 0; r < n; ++r) {
      const double v = x.at(r, f);
      if (!std::isnan(v)) col.push_back(v);
    }
    if (col.empty()) continue;  // all-missing feature: single bin 0
    std::sort(col.begin(), col.end());
    const std::size_t m = col.size();
    auto& e = edges_[f];
    e.reserve(static_cast<std::size_t>(n_bins));
    for (int b = 1; b < n_bins; ++b) {
      const double q = static_cast<double>(b) / n_bins;
      const auto idx = static_cast<std::size_t>(q * static_cast<double>(m - 1));
      const double cut = col[idx];
      if (e.empty() || cut > e.back()) e.push_back(cut);
    }
  }
}

std::uint16_t BinMapper::bin(std::size_t f, double v) const noexcept {
  if (std::isnan(v)) return missing_code();
  const auto& e = edges_[f];
  // First bin whose cut point is >= v; values above all cuts land in the
  // last bin.
  const auto it = std::lower_bound(e.begin(), e.end(), v);
  return static_cast<std::uint16_t>(it - e.begin());
}

double BinMapper::upper_edge(std::size_t f, std::uint16_t b) const noexcept {
  const auto& e = edges_[f];
  if (e.empty()) return std::numeric_limits<double>::infinity();
  if (b >= e.size()) return std::numeric_limits<double>::infinity();
  return e[b];
}

std::vector<std::uint16_t> BinMapper::encode(const FeatureMatrix& x) const {
  std::vector<std::uint16_t> codes(x.rows() * x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      codes[r * x.cols() + f] = bin(f, x.at(r, f));
    }
  }
  return codes;
}

namespace {

struct NodeTask {
  int node = 0;
  int depth = 0;
  std::size_t begin = 0;  ///< range into the shared index buffer
  std::size_t end = 0;
};

/// Rows-in-node threshold below which the candidate-feature loop is not
/// worth distributing across the pool (histogram build is O(rows) per
/// feature; small nodes are dominated by dispatch overhead).
constexpr std::size_t kParallelNodeRows = 1024;

/// Code source over row-major uint16 codes (the seed layout): one stride-d
/// load per row in the histogram pass.
///
/// Both sources take `idx == nullptr` to mean "the range is the identity
/// permutation" (row r == position i) — fit_impl detects that once per
/// node and the accumulate loops drop the per-row indirection. Row visit
/// order is unchanged either way, so the per-bin floating-point sums are
/// bit-identical with and without the fast path.
struct RowMajorCodes {
  const std::uint16_t* codes;
  std::size_t d;

  std::uint16_t code(std::size_t r, std::size_t f) const noexcept {
    return codes[r * d + f];
  }
  void accumulate(std::size_t f, const std::size_t* idx, std::size_t begin,
                  std::size_t end, const double* grad, const double* hess,
                  double* hg, double* hh, std::size_t* hc) const noexcept {
    if (idx == nullptr) {
      // 4-way unroll with the code loads hoisted ahead of the bin updates:
      // the four strided loads issue back to back instead of each waiting
      // behind the previous row's read-modify-write of hg/hh. Rows are
      // still visited (and each bin accumulated) in ascending row order,
      // so the per-bin FP sums are bit-identical to the plain loop.
      std::size_t r = begin;
      for (; r + 4 <= end; r += 4) {
        const std::uint16_t b0 = codes[(r + 0) * d + f];
        const std::uint16_t b1 = codes[(r + 1) * d + f];
        const std::uint16_t b2 = codes[(r + 2) * d + f];
        const std::uint16_t b3 = codes[(r + 3) * d + f];
        hg[b0] += grad[r + 0];
        hh[b0] += hess[r + 0];
        ++hc[b0];
        hg[b1] += grad[r + 1];
        hh[b1] += hess[r + 1];
        ++hc[b1];
        hg[b2] += grad[r + 2];
        hh[b2] += hess[r + 2];
        ++hc[b2];
        hg[b3] += grad[r + 3];
        hh[b3] += hess[r + 3];
        ++hc[b3];
      }
      for (; r < end; ++r) {
        const std::uint16_t b = codes[r * d + f];
        hg[b] += grad[r];
        hh[b] += hess[r];
        ++hc[b];
      }
      return;
    }
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t r = idx[i];
      const std::uint16_t b = codes[r * d + f];
      hg[b] += grad[r];
      hh[b] += hess[r];
      ++hc[b];
    }
  }
};

/// Code source over a columnar BinnedMatrix: the histogram pass walks one
/// contiguous (uint8 where possible) column, dispatched on the stored
/// width once per feature instead of once per access. Row order inside
/// the loop matches RowMajorCodes exactly, so per-bin accumulation — and
/// therefore the chosen split — is bit-identical.
struct ColumnarCodes {
  const BinnedMatrix* b;

  std::uint16_t code(std::size_t r, std::size_t f) const noexcept {
    return b->code(r, f);
  }
  void accumulate(std::size_t f, const std::size_t* idx, std::size_t begin,
                  std::size_t end, const double* grad, const double* hess,
                  double* hg, double* hh, std::size_t* hc) const noexcept {
    if (b->narrow(f)) {
      const std::uint8_t* col = b->col8(f);
      if (idx == nullptr) {
        // Identity range: the code column is read strictly sequentially —
        // 64 codes per cache line, ideal for the hardware prefetcher. Same
        // hoisted-load 4-way unroll as RowMajorCodes (bit-identical: rows
        // and their bin updates stay in ascending row order).
        std::size_t r = begin;
        for (; r + 4 <= end; r += 4) {
          const std::uint8_t c0 = col[r + 0];
          const std::uint8_t c1 = col[r + 1];
          const std::uint8_t c2 = col[r + 2];
          const std::uint8_t c3 = col[r + 3];
          hg[c0] += grad[r + 0];
          hh[c0] += hess[r + 0];
          ++hc[c0];
          hg[c1] += grad[r + 1];
          hh[c1] += hess[r + 1];
          ++hc[c1];
          hg[c2] += grad[r + 2];
          hh[c2] += hess[r + 2];
          ++hc[c2];
          hg[c3] += grad[r + 3];
          hh[c3] += hess[r + 3];
          ++hc[c3];
        }
        for (; r < end; ++r) {
          const std::uint8_t c = col[r];
          hg[c] += grad[r];
          hh[c] += hess[r];
          ++hc[c];
        }
        return;
      }
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t r = idx[i];
        const std::uint8_t c = col[r];
        hg[c] += grad[r];
        hh[c] += hess[r];
        ++hc[c];
      }
    } else {
      const std::uint16_t* col = b->col16(f);
      if (idx == nullptr) {
        std::size_t r = begin;
        for (; r + 4 <= end; r += 4) {
          const std::uint16_t c0 = col[r + 0];
          const std::uint16_t c1 = col[r + 1];
          const std::uint16_t c2 = col[r + 2];
          const std::uint16_t c3 = col[r + 3];
          hg[c0] += grad[r + 0];
          hh[c0] += hess[r + 0];
          ++hc[c0];
          hg[c1] += grad[r + 1];
          hh[c1] += hess[r + 1];
          ++hc[c1];
          hg[c2] += grad[r + 2];
          hh[c2] += hess[r + 2];
          ++hc[c2];
          hg[c3] += grad[r + 3];
          hh[c3] += hess[r + 3];
          ++hc[c3];
        }
        for (; r < end; ++r) {
          const std::uint16_t c = col[r];
          hg[c] += grad[r];
          hh[c] += hess[r];
          ++hc[c];
        }
        return;
      }
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t r = idx[i];
        const std::uint16_t c = col[r];
        hg[c] += grad[r];
        hh[c] += hess[r];
        ++hc[c];
      }
    }
  }
};

}  // namespace

void GradientTree::fit(const std::vector<std::uint16_t>& codes,
                       const BinMapper& mapper, std::span<const double> grad,
                       std::span<const double> hess,
                       std::span<const std::size_t> indices,
                       const TreeConfig& cfg, Rng* rng) {
  LUMOS_EXPECTS(codes.size() == grad.size() * mapper.n_features(),
                "GradientTree::fit: codes size disagrees with mapper width");
  fit_impl(RowMajorCodes{codes.data(), mapper.n_features()}, mapper, grad,
           hess, indices, cfg, rng);
}

void GradientTree::fit(const BinnedMatrix& binned, const BinMapper& mapper,
                       std::span<const double> grad,
                       std::span<const double> hess,
                       std::span<const std::size_t> indices,
                       const TreeConfig& cfg, Rng* rng) {
  LUMOS_EXPECTS(binned.rows() == grad.size() &&
                    binned.cols() == mapper.n_features(),
                "GradientTree::fit: binned shape disagrees with mapper");
  fit_impl(ColumnarCodes{&binned}, mapper, grad, hess, indices, cfg, rng);
}

template <class Source>
void GradientTree::fit_impl(const Source& src, const BinMapper& mapper,
                            std::span<const double> grad,
                            std::span<const double> hess,
                            std::span<const std::size_t> indices,
                            const TreeConfig& cfg, Rng* rng) {
  LUMOS_EXPECTS(grad.size() == hess.size(),
                "GradientTree::fit: grad/hess length mismatch");
  nodes_.clear();
  gains_.clear();
  const std::size_t d = mapper.n_features();
  const auto n_bins = static_cast<std::size_t>(mapper.max_bins());
  missing_code_ = mapper.missing_code();
  if (indices.empty() || d == 0) {
    nodes_.push_back(Node{});
    gains_.push_back(0.0);
    return;
  }

  std::vector<std::size_t> idx(indices.begin(), indices.end());

  // Reusable histogram buffers; the extra slot is the missing-value bin.
  std::vector<double> hist_g(n_bins + 1), hist_h(n_bins + 1);
  std::vector<std::size_t> hist_c(n_bins + 1);
  std::vector<std::size_t> feat_pool(d);
  std::iota(feat_pool.begin(), feat_pool.end(), std::size_t{0});

  nodes_.push_back(Node{});
  gains_.push_back(0.0);
  std::vector<NodeTask> stack{{0, 0, 0, idx.size()}};

  while (!stack.empty()) {
    const NodeTask task = stack.back();
    stack.pop_back();
    const std::size_t count = task.end - task.begin;

    double gsum = 0.0, hsum = 0.0;
    for (std::size_t i = task.begin; i < task.end; ++i) {
      gsum += grad[idx[i]];
      hsum += hess[idx[i]];
    }
    // Convention: `grad` holds the NEGATIVE loss gradient (i.e. the target
    // direction), so the Newton leaf is +G/(H+lambda). With grad=y, hess=1
    // this reduces to the (shrunken) mean of y.
    nodes_[static_cast<std::size_t>(task.node)].value =
        gsum / (hsum + cfg.lambda);

    if (task.depth >= cfg.max_depth || count < 2 * cfg.min_samples_leaf) {
      continue;
    }

    // Choose candidate features (all, or a random subset for forests).
    std::span<const std::size_t> features(feat_pool);
    std::vector<std::size_t> subset;
    if (cfg.feature_subsample > 0 && cfg.feature_subsample < d && rng) {
      subset = feat_pool;
      rng->shuffle(subset);
      subset.resize(cfg.feature_subsample);
      features = subset;
    }

    const double parent_score = gsum * gsum / (hsum + cfg.lambda);

    // Each candidate feature builds its histogram and scans its bins
    // independently; only the per-feature winners are compared, in fixed
    // feature order, so the chosen split does not depend on how the loop
    // is scheduled.
    // Identity probe: when the node's index range is the identity
    // permutation (always true at the root of a boosting fit, where
    // indices are 0..n-1 and no partition has run yet), every candidate
    // feature's histogram pass can skip the per-row indirection and read
    // its code column strictly sequentially. One O(count) scan amortized
    // over nf histogram passes; mismatches exit on the first permuted row.
    bool identity = true;
    for (std::size_t i = task.begin; i < task.end; ++i) {
      if (idx[i] != i) {
        identity = false;
        break;
      }
    }
    const std::size_t* acc_idx = identity ? nullptr : idx.data();

    const std::size_t nf = features.size();
    std::vector<Split> fbest(nf);
    auto eval_feature = [&](std::size_t fi, std::vector<double>& hg,
                            std::vector<double>& hh,
                            std::vector<std::size_t>& hc) {
      const std::size_t f = features[fi];
      std::fill(hg.begin(), hg.end(), 0.0);
      std::fill(hh.begin(), hh.end(), 0.0);
      std::fill(hc.begin(), hc.end(), std::size_t{0});
      src.accumulate(f, acc_idx, task.begin, task.end, grad.data(),
                     hess.data(), hg.data(), hh.data(), hc.data());
      // Missing-bin mass: scored with the missing rows attached to the
      // right child (option R, matching the historical NaN fallthrough)
      // and to the left child (option L); the better direction is learned
      // as the split's default branch, ties keeping R. With no missing
      // values the missing bin is empty, option L collapses onto option R
      // and the scan is bit-identical to the NaN-oblivious one.
      const double gm = hg[n_bins];
      const double hm = hh[n_bins];
      const std::size_t cm = hc[n_bins];
      Split local;
      double gl = 0.0, hl = 0.0;
      std::size_t cl = 0;
      for (std::size_t b = 0; b + 1 < n_bins; ++b) {
        gl += hg[b];
        hl += hh[b];
        cl += hc[b];
        const std::size_t cr = count - cl;  // right child under option R
        if (cr < cfg.min_samples_leaf) break;
        if (cl >= cfg.min_samples_leaf) {
          const double gr = gsum - gl;
          const double hr = hsum - hl;
          const double gain = gl * gl / (hl + cfg.lambda) +
                              gr * gr / (hr + cfg.lambda) - parent_score;
          if (gain > local.gain) {
            local = {static_cast<int>(f), static_cast<int>(b), gain, false};
          }
        }
        if (cm > 0 && cl + cm >= cfg.min_samples_leaf &&
            cr >= cm + cfg.min_samples_leaf) {
          const double gll = gl + gm;
          const double hll = hl + hm;
          const double grr = gsum - gll;
          const double hrr = hsum - hll;
          const double gain = gll * gll / (hll + cfg.lambda) +
                              grr * grr / (hrr + cfg.lambda) - parent_score;
          if (gain > local.gain) {
            local = {static_cast<int>(f), static_cast<int>(b), gain, true};
          }
        }
      }
      fbest[fi] = local;
    };

    if (count >= kParallelNodeRows && nf > 1) {
      parallel_for(0, nf, 1, [&](std::size_t fb, std::size_t fe) {
        std::vector<double> hg(n_bins + 1), hh(n_bins + 1);
        std::vector<std::size_t> hc(n_bins + 1);
        for (std::size_t fi = fb; fi < fe; ++fi) eval_feature(fi, hg, hh, hc);
      });
    } else {
      for (std::size_t fi = 0; fi < nf; ++fi) {
        eval_feature(fi, hist_g, hist_h, hist_c);
      }
    }

    Split best;
    for (std::size_t fi = 0; fi < nf; ++fi) {
      if (fbest[fi].gain > best.gain) best = fbest[fi];
    }

    if (best.feature < 0 || best.gain <= cfg.min_gain) continue;

    // Partition the index range: codes <= bin go left; the missing code
    // follows the learned default direction.
    const auto bf = static_cast<std::size_t>(best.feature);
    const std::uint16_t missing = missing_code_;
    const auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(task.begin),
        idx.begin() + static_cast<std::ptrdiff_t>(task.end),
        [&](std::size_t r) {
          const std::uint16_t c = src.code(r, bf);
          if (c == missing) return best.default_left;
          return c <= static_cast<std::uint16_t>(best.bin);
        });
    const auto mid =
        static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == task.begin || mid == task.end) continue;  // degenerate

    Node& node = nodes_[static_cast<std::size_t>(task.node)];
    node.feature = best.feature;
    node.bin = best.bin;
    node.default_left = best.default_left;
    node.threshold = mapper.upper_edge(bf, static_cast<std::uint16_t>(best.bin));
    gains_[static_cast<std::size_t>(task.node)] = best.gain;

    const int left = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    gains_.push_back(0.0);
    const int right = static_cast<int>(nodes_.size());
    nodes_.push_back(Node{});
    gains_.push_back(0.0);
    nodes_[static_cast<std::size_t>(task.node)].left = left;
    nodes_[static_cast<std::size_t>(task.node)].right = right;

    stack.push_back({left, task.depth + 1, task.begin, mid});
    stack.push_back({right, task.depth + 1, mid, task.end});
  }
  // push_back grew both arrays by doubling; an ensemble keeps hundreds of
  // trees, so give the unused tail back (a 323-node tree would hold 512).
  nodes_.shrink_to_fit();
  gains_.shrink_to_fit();
}

double GradientTree::predict_binned(
    std::span<const std::uint16_t> row_codes) const noexcept {
  if (nodes_.empty()) return 0.0;
  int cur = 0;
  while (nodes_[static_cast<std::size_t>(cur)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    const std::uint16_t c = row_codes[static_cast<std::size_t>(n.feature)];
    if (c == missing_code_) {
      cur = n.default_left ? n.left : n.right;
    } else {
      cur = c <= static_cast<std::uint16_t>(n.bin) ? n.left : n.right;
    }
  }
  return nodes_[static_cast<std::size_t>(cur)].value;
}

double GradientTree::predict_binned(const BinnedMatrix& binned,
                                    std::size_t row) const noexcept {
  if (nodes_.empty()) return 0.0;
  int cur = 0;
  while (nodes_[static_cast<std::size_t>(cur)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    const std::uint16_t c =
        binned.code(row, static_cast<std::size_t>(n.feature));
    if (c == missing_code_) {
      cur = n.default_left ? n.left : n.right;
    } else {
      cur = c <= static_cast<std::uint16_t>(n.bin) ? n.left : n.right;
    }
  }
  return nodes_[static_cast<std::size_t>(cur)].value;
}

double GradientTree::predict(std::span<const double> row) const noexcept {
  if (nodes_.empty()) return 0.0;
  int cur = 0;
  while (nodes_[static_cast<std::size_t>(cur)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    const double v = row[static_cast<std::size_t>(n.feature)];
    if (std::isnan(v)) {
      cur = n.default_left ? n.left : n.right;
    } else {
      cur = v <= n.threshold ? n.left : n.right;
    }
  }
  return nodes_[static_cast<std::size_t>(cur)].value;
}

void GradientTree::accumulate_gain(std::span<double> gain_by_feature) const noexcept {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].feature >= 0) {
      const auto f = static_cast<std::size_t>(nodes_[i].feature);
      if (f < gain_by_feature.size()) gain_by_feature[f] += gains_[i];
    }
  }
}

}  // namespace lumos::ml
