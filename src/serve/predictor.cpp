#include "serve/predictor.h"

#include <algorithm>
#include <utility>

#include "common/contracts.h"

namespace lumos::serve {

Predictor::Predictor(data::FeatureConfig features,
                     std::vector<data::FeatureSetSpec> specs)
    : features_(std::move(features)),
      specs_(std::move(specs)),
      tiers_(specs_.size()) {
  tier_widths_.reserve(specs_.size());
  for (const data::FeatureSetSpec& spec : specs_) {
    tier_widths_.push_back(data::feature_width(spec, features_));
    max_width_ = std::max(max_width_, tier_widths_.back());
  }
}

Expected<Predictor> Predictor::compile(const core::Lumos5G& model) {
  if (!model.trained()) {
    return Error{ErrorCode::kNotTrained,
                 "Predictor::compile: facade has no trained tier"};
  }
  Predictor p(model.config().features, model.tier_specs());
  for (std::size_t i = 0; i < p.specs_.size(); ++i) {
    if (!model.tier_trained(i)) continue;
    p.tiers_[i].regressor = FlatForest::flatten(model.tier_regressor(i));
    p.tiers_[i].classifier = FlatClassifier::flatten(model.tier_classifier(i));
    p.tiers_[i].compiled = true;
  }
  return p;
}

Expected<core::Prediction> Predictor::predict(
    std::span<const data::SampleRecord> recent, std::size_t min_tier) const {
  // Mirrors Lumos5G::predict tier by tier so a compiled predictor answers
  // bit-identically to the facade it came from. min_tier skips the front
  // of the chain (overload degradation); the walk below it is unchanged,
  // so min_tier = 0 stays bit-identical to the facade.
  // Per-thread row arena: sized once to the widest tier, then reused by
  // every call on this thread. The resize is amortized cold (a no-op after
  // the first call at this width), and the contents are fully overwritten
  // by feature_row_into before use, so reuse cannot leak state between
  // calls or threads.
  thread_local std::vector<double> row_arena;
  if (row_arena.size() < max_width_) {
    row_arena.resize(max_width_);  // lumos-lint: allow(hot-path-alloc) amortized thread-local arena growth
  }
  for (std::size_t i = min_tier; i < tiers_.size(); ++i) {
    const FlatTier& tier = tiers_[i];
    if (!tier.compiled) continue;
    const std::span<double> row{row_arena.data(), tier_widths_[i]};
    if (!data::feature_row_into(recent, specs_[i], features_, row)) continue;
    core::Prediction p;
    p.throughput_mbps = tier.regressor.predict(row);
    p.throughput_class = tier.classifier.predict(row);
    p.tier = static_cast<int>(i);
    return p;
  }
  return core::harmonic_tail(recent, features_, specs_.size());
}

void Predictor::predict_spans_columnar(
    std::span<const std::span<const data::SampleRecord>> windows,
    std::span<Expected<core::Prediction>> out, PredictScratch& scratch,
    std::size_t min_tier) const {
  LUMOS_EXPECTS(out.size() >= windows.size(),
                "Predictor::predict_spans_columnar: one output slot per window");
  LUMOS_EXPECTS(scratch.max_windows() >= windows.size(),
                "Predictor::predict_spans_columnar: scratch too small for batch");
  LUMOS_EXPECTS(scratch.max_width() >= max_width_,
                "Predictor::predict_spans_columnar: scratch narrower than widest tier");

  // Start with every window pending, in submission order. The tier loop
  // answers windows tier-by-tier; pending_ is compacted in place each pass
  // (write index trails read index, so compaction is safe and preserves
  // order — which keeps feature extraction deterministic and the walk
  // per-window identical to predict()).
  std::size_t n_pending = windows.size();
  for (std::size_t i = 0; i < n_pending; ++i) {
    scratch.pending_[i] = static_cast<std::uint32_t>(i);
  }

  for (std::size_t t = min_tier; t < tiers_.size() && n_pending > 0; ++t) {
    const FlatTier& tier = tiers_[t];
    if (!tier.compiled) continue;
    const std::span<double> row{scratch.row_.data(), tier_widths_[t]};
    // Pack: extract this tier's feature row for every still-pending
    // window; successes scatter into the column arena, failures stay
    // pending for the next tier. A window either packs here or compacts
    // forward — exactly the per-row "first tier whose features the window
    // can produce" rule of predict().
    std::size_t n_packed = 0;
    std::size_t n_next = 0;
    for (std::size_t k = 0; k < n_pending; ++k) {
      const std::uint32_t idx = scratch.pending_[k];
      if (data::feature_row_into(windows[idx], specs_[t], features_, row)) {
        scratch.cols_.put_row(n_packed, row);
        scratch.packed_[n_packed++] = idx;
      } else {
        scratch.pending_[n_next++] = idx;
      }
    }
    n_pending = n_next;
    if (n_packed == 0) continue;

    // Evaluate the packed rows in one columnar pass per model: every row
    // advances together through each tree level over contiguous feature
    // columns. Per row this is bit-identical to tier.regressor.predict /
    // tier.classifier.predict on the same extracted features.
    const data::ColumnBlock block = scratch.cols_.block(0, n_packed);
    tier.regressor.predict_columnar(
        block, std::span<double>{scratch.reg_.data(), n_packed});
    tier.classifier.predict_columnar(
        block, std::span<int>{scratch.cls_.data(), n_packed});
    for (std::size_t j = 0; j < n_packed; ++j) {
      core::Prediction p;
      p.throughput_mbps = scratch.reg_[j];
      p.throughput_class = scratch.cls_[j];
      p.tier = static_cast<int>(t);
      out[scratch.packed_[j]] = p;
    }
  }

  // Whatever no tier could serve falls to the same tail as predict().
  for (std::size_t k = 0; k < n_pending; ++k) {
    const std::uint32_t idx = scratch.pending_[k];
    out[idx] = core::harmonic_tail(windows[idx], features_, specs_.size());
  }
}

std::size_t Predictor::n_nodes() const noexcept {
  std::size_t n = 0;
  for (const auto& t : tiers_) {
    n += t.regressor.n_nodes() + t.classifier.n_nodes();
  }
  return n;
}

}  // namespace lumos::serve
