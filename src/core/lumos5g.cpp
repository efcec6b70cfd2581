#include "core/lumos5g.h"

#include <algorithm>
#include <cmath>

namespace lumos::core {

/// Drops T first (adding L so a location signal survives — panel geometry
/// is the input most often unavailable), then drops C (lag features need
/// an uninterrupted history and are the most fragile at query time).
std::vector<data::FeatureSetSpec> derive_tiers(
    const data::FeatureSetSpec& primary, const FallbackConfig& fb) {
  std::vector<data::FeatureSetSpec> chain{primary};
  const auto push_unique = [&chain](const data::FeatureSetSpec& s) {
    if (!s.L && !s.M && !s.T && !s.C) return;  // empty spec is not a tier
    if (std::find(chain.begin(), chain.end(), s) == chain.end()) {
      chain.push_back(s);
    }
  };
  if (!fb.enabled) return chain;
  if (!fb.tiers.empty()) {
    for (const auto& s : fb.tiers) push_unique(s);
    return chain;
  }
  if (primary.T) {
    data::FeatureSetSpec s = primary;
    s.T = false;
    s.L = true;
    push_unique(s);
  }
  data::FeatureSetSpec last = chain.back();
  if (last.C) {
    last.C = false;
    push_unique(last);
  }
  return chain;
}

Lumos5G::Lumos5G(Lumos5GConfig cfg)
    : cfg_(std::move(cfg)),
      tier_specs_(derive_tiers(cfg_.feature_spec, cfg_.fallback)) {
  tiers_.reserve(tier_specs_.size());
  tier_group_names_.reserve(tier_specs_.size());
  tier_widths_.reserve(tier_specs_.size());
  for (const auto& spec : tier_specs_) {
    tiers_.push_back(Tier{ml::GbdtRegressor(cfg_.gbdt),
                          ml::GbdtClassifier(cfg_.gbdt),
                          data::feature_names(spec, cfg_.features), false});
    tier_group_names_.push_back(spec.name());
    tier_widths_.push_back(data::feature_width(spec, cfg_.features));
    max_width_ = std::max(max_width_, tier_widths_.back());
  }
}

std::size_t Lumos5G::best_tier() const noexcept {
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (tiers_[i].trained) return i;
  }
  return 0;
}

Expected<void> Lumos5G::train(const data::Dataset& ds) {
  trained_ = false;
  std::size_t best_rows = 0;
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    Tier& tier = tiers_[i];
    tier.trained = false;
    const auto built =
        data::build_features(ds, tier_specs_[i], cfg_.features);
    best_rows = std::max(best_rows, built.x.rows());
    if (built.x.rows() < kMinTrainRows) continue;
    tier.regressor = ml::GbdtRegressor(cfg_.gbdt);
    tier.classifier = ml::GbdtClassifier(cfg_.gbdt);
    tier.regressor.fit(built.x, built.y_reg);
    tier.classifier.fit(built.x, built.y_cls, data::kNumThroughputClasses);
    tier.trained = true;
    trained_ = true;
  }
  if (!trained_) {
    return Error{ErrorCode::kDatasetTooSmall,
                 "Lumos5G::train: no fallback tier has >= " +
                     std::to_string(kMinTrainRows) +
                     " usable feature rows (best tier had " +
                     std::to_string(best_rows) + ")"};
  }
  return {};
}

Expected<Prediction> Lumos5G::predict(
    std::span<const data::SampleRecord> recent) const {
  if (!trained_) {
    return Error{ErrorCode::kNotTrained,
                 "Lumos5G::predict: train() has not succeeded yet"};
  }
  // Per-thread row arena, as in serve::Predictor::predict: sized once to
  // the widest tier, fully overwritten by feature_row_into before use.
  thread_local std::vector<double> row_arena;
  if (row_arena.size() < max_width_) {
    row_arena.resize(max_width_);  // lumos-lint: allow(hot-path-alloc) amortized thread-local arena growth
  }
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    const Tier& tier = tiers_[i];
    if (!tier.trained) continue;
    const std::span<double> row{row_arena.data(), tier_widths_[i]};
    if (!data::feature_row_into(recent, tier_specs_[i], cfg_.features, row)) {
      continue;
    }
    Prediction p;
    p.throughput_mbps = tier.regressor.predict(row);
    p.throughput_class = tier.classifier.predict(row);
    p.tier = static_cast<int>(i);
    p.feature_group = tier_group_names_[i];  // SSO copy: group names are short
    return p;
  }
  if (cfg_.fallback.enabled && cfg_.fallback.harmonic_tail) {
    // Harmonic mean of the most recent positive finite throughputs — the
    // classic ABR estimator; robust to a single outlier spike.
    double inv_sum = 0.0;
    std::size_t n = 0;
    for (std::size_t k = recent.size();
         k-- > 0 && n < cfg_.fallback.harmonic_window;) {
      const double v = recent[k].throughput_mbps;
      if (std::isfinite(v) && v > 0.0) {
        inv_sum += 1.0 / v;
        ++n;
      }
    }
    if (n > 0) {
      Prediction p;
      p.throughput_mbps = static_cast<double>(n) / inv_sum;
      p.throughput_class =
          data::throughput_class(p.throughput_mbps, cfg_.features);
      p.tier = static_cast<int>(tier_specs_.size());
      p.feature_group = "harmonic";
      return p;
    }
  }
  // Static message: the hot path never formats (see lumos_lint's
  // hot-path-alloc pass); the typed code is the contract.
  return Error{ErrorCode::kWindowUnusable, "window unusable"};
}

const std::vector<std::string>& Lumos5G::feature_names() const noexcept {
  return tiers_[best_tier()].names;
}

Expected<std::vector<double>> Lumos5G::feature_importance() const {
  if (!trained_) {
    return Error{ErrorCode::kNotTrained,
                 "Lumos5G::feature_importance: train() has not succeeded yet"};
  }
  return tiers_[best_tier()].regressor.feature_importance();
}

}  // namespace lumos::core
