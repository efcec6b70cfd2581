// Lumos5G — the user-facing prediction facade (paper §2.3, Fig. 4).
// A 5G-aware app trains (or downloads) a predictor for its area and
// feature-group combination, then queries it online with the UE's recent
// context window to drive decisions like initial-bitrate selection or
// bitrate adaptation.
//
// Robustness: prediction degrades gracefully instead of failing. The
// facade maintains a fallback chain of feature tiers (e.g. T+M+C → L+M+C
// → L+M); when the query window cannot produce the primary tier's
// features — panels unsurveyed, GPS outage mid-window, lag history
// interrupted — the first tier that CAN fire answers, and the chosen tier
// is reported on the Prediction. A final non-ML tail (harmonic mean of
// recent throughput, the classic ABR estimator) catches windows no model
// tier can serve. Fallible operations return Expected<T> with a typed
// lumos::Error instead of throwing or silently returning nullopt.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "data/dataset.h"
#include "data/features.h"
#include "ml/gbdt.h"

namespace lumos::core {

/// Graceful-degradation policy for prediction.
struct FallbackConfig {
  bool enabled = true;

  /// Explicit tier chain, most capable first. Leave empty to derive it
  /// from the primary feature spec: drop T (adding L so location signal
  /// survives), then drop C (lag features are the most fragile input).
  /// The primary spec is always tier 0 whether listed here or not.
  std::vector<data::FeatureSetSpec> tiers;

  /// Final non-ML tail: harmonic mean of the most recent finite
  /// throughput samples when no model tier can fire.
  bool harmonic_tail = true;
  std::size_t harmonic_window = 5;
};

struct Lumos5GConfig {
  data::FeatureSetSpec feature_spec = data::FeatureSetSpec::parse("L+M");
  data::FeatureConfig features{};
  ml::GbdtConfig gbdt{};
  FallbackConfig fallback{};
};

/// The fallback tier chain a config derives, most capable first (tier 0
/// is always `primary`): drop T, adding L, then drop C — or the explicit
/// FallbackConfig::tiers. Lumos5G builds its chain with it, and the
/// artifact loaders re-derive it to check a stored tier count.
[[nodiscard]] std::vector<data::FeatureSetSpec> derive_tiers(
    const data::FeatureSetSpec& primary, const FallbackConfig& fb);

/// Prediction made for one context window.
struct Prediction {
  double throughput_mbps = 0.0;
  int throughput_class = 0;  ///< 0 low / 1 medium / 2 high (paper §5.2)
  /// Which tier answered: index into Lumos5G::tier_specs() for a model
  /// tier; tier_specs().size() for the harmonic-mean tail.
  int tier = 0;
  /// Feature-group name of the answering tier ("T+M+C", "L+M", ...), or
  /// "harmonic" for the tail.
  std::string feature_group;
};

class Lumos5G {
 public:
  explicit Lumos5G(Lumos5GConfig cfg = {});

  /// Trains a GDBT regressor + classifier pair for every tier of the
  /// fallback chain the dataset can support (>= kMinTrainRows usable
  /// feature rows). Errors with kDatasetTooSmall when no tier is
  /// trainable. The models are fit concurrently on the global pool, one
  /// task each, and are bit-identical at any pool size. The call holds
  /// the pool until the last fit ends, so a serve::Server polling on the
  /// same pool would wait behind it.
  Expected<void> train(const data::Dataset& ds);

  /// Predicts the next-slot throughput from the UE's recent samples (the
  /// last element is "now"). Walks the fallback chain: the first trained
  /// tier whose features the window can produce answers. Errors with
  /// kNotTrained before a successful train() and kWindowUnusable when no
  /// tier (nor the harmonic tail) can serve the window.
  Expected<Prediction> predict(
      std::span<const data::SampleRecord> recent) const;

  /// True once train() has fit at least one tier.
  bool trained() const noexcept { return trained_; }

  /// Feature names of the best trained tier (the one tier-0 queries use);
  /// primary-spec names before training.
  const std::vector<std::string>& feature_names() const noexcept;

  /// GDBT global gain importance of the best trained tier, aligned with
  /// feature_names() (Fig. 22). Errors with kNotTrained before train().
  Expected<std::vector<double>> feature_importance() const;

  /// The model tier chain, most capable first; tier 0 is the primary spec.
  const std::vector<data::FeatureSetSpec>& tier_specs() const noexcept {
    return tier_specs_;
  }
  /// Whether tier `i` was successfully fit by the last train().
  bool tier_trained(std::size_t i) const noexcept {
    return i < tiers_.size() && tiers_[i].trained;
  }

  const Lumos5GConfig& config() const noexcept { return cfg_; }

  // --- fitted-state access for serialization (serve/model_io) ---
  /// Models of tier `i`; only meaningful when tier_trained(i).
  const ml::GbdtRegressor& tier_regressor(std::size_t i) const noexcept {
    return tiers_[i].regressor;
  }
  const ml::GbdtClassifier& tier_classifier(std::size_t i) const noexcept {
    return tiers_[i].classifier;
  }

  /// Reinstates tier `i` from deserialized models and marks it trained.
  /// The facade must have been constructed with the same config that was
  /// saved, so the tier chain (and feature names) line up.
  void restore_tier(std::size_t i, ml::GbdtRegressor regressor,
                    ml::GbdtClassifier classifier) {
    tiers_[i].regressor = std::move(regressor);
    tiers_[i].classifier = std::move(classifier);
    tiers_[i].trained = true;
    trained_ = true;
  }

  /// Minimum usable feature rows for a tier to be trainable.
  static constexpr std::size_t kMinTrainRows = 10;

 private:
  struct Tier {
    ml::GbdtRegressor regressor;
    ml::GbdtClassifier classifier;
    std::vector<std::string> names;
    bool trained = false;
  };

  /// Index of the best (lowest) trained tier; 0 before training.
  std::size_t best_tier() const noexcept;

  Lumos5GConfig cfg_;
  std::vector<data::FeatureSetSpec> tier_specs_;
  std::vector<Tier> tiers_;
  // Precomputed at construction so predict() never formats a group name or
  // recomputes a row width per call (both would allocate on the hot path).
  std::vector<std::string> tier_group_names_;
  std::vector<std::size_t> tier_widths_;
  std::size_t max_width_ = 0;
  bool trained_ = false;
};

}  // namespace lumos::core
