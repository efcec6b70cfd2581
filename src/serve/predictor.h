// The low-latency serving runtime over a trained core::Lumos5G facade or
// its artifact. Predictor::compile flattens every tier's GBDT pair into
// contiguous FlatForest/FlatClassifier layouts; serve::save_bytes stores
// those arrays, and serve::load_predictor (serve/model_io.h), the one
// artifact reader, checks and reloads them without building the facade's
// pointer trees. Queries then walk the same fallback chain as the facade
// — first trained tier whose features the window can produce answers,
// the facade's own core::harmonic_tail last — and return predictions
// bit-identical to Lumos5G::predict (enforced by tests/test_serve.cpp).
//
// A query is a window of one UE's recent SampleRecords, oldest first: the
// C feature group needs the UE's throughput/context history. serve::Server
// keeps those windows in its preallocated per-UE ring store; any other
// caller passes spans over records it holds. Batched prediction
// (predict_spans_columnar) is a sequential walk on caller-owned scratch;
// Server::poll runs one such walk per lane over lumos::ThreadPool, and the
// answers are bit-identical at any LUMOS_THREADS setting.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "core/lumos5g.h"
#include "data/column_store.h"
#include "data/features.h"
#include "data/sample.h"
#include "serve/flat_model.h"

namespace lumos::serve {

/// Preallocated working set for Predictor::predict_spans_columnar. The
/// caller owns it and reserves once (cold) for the largest batch it will
/// submit; every per-batch structure — the column-major feature arena, the
/// packed-row maps, the per-row model outputs — then lives here, so the
/// batched columnar walk itself never allocates. Reusable across batches
/// and across reloads as long as (max_windows, max_width) still fit.
class PredictScratch {
 public:
  PredictScratch() = default;

  /// Sizes every arena for up to `max_windows` windows of feature rows up
  /// to `max_width` wide (Predictor::max_width()). Allocates; cold path.
  void reserve(std::size_t max_windows, std::size_t max_width) {
    cols_.reshape(max_windows, max_width);
    row_.assign(max_width, 0.0);
    pending_.assign(max_windows, 0);
    packed_.assign(max_windows, 0);
    reg_.assign(max_windows, 0.0);
    cls_.assign(max_windows, 0);
  }

  std::size_t max_windows() const noexcept { return pending_.size(); }
  std::size_t max_width() const noexcept { return row_.size(); }

 private:
  friend class Predictor;
  data::ColumnStore cols_;             ///< packed rows, column-major
  std::vector<double> row_;            ///< one extracted row (scatter source)
  std::vector<std::uint32_t> pending_; ///< window indices not yet answered
  std::vector<std::uint32_t> packed_;  ///< packed row -> window index
  std::vector<double> reg_;            ///< regressor output per packed row
  std::vector<int> cls_;               ///< classifier output per packed row
};

class Predictor {
 public:
  /// Builds the flattened serving snapshot of a trained facade. Errors
  /// with kNotTrained when no tier is trained (nothing to serve). An
  /// artifact loads into the same snapshot via serve::load_predictor.
  [[nodiscard]] static Expected<Predictor> compile(
      const core::Lumos5G& model);

  /// Predicts from a raw context window (last element = "now"). Tier
  /// walk, feature extraction, and errors mirror Lumos5G::predict.
  ///
  /// `min_tier` starts the fallback walk at that tier index instead of 0 —
  /// the serving loop's overload degradation: under queue pressure the
  /// server asks for a cheaper tier and the answering tier is still
  /// reported honestly on Prediction::tier. A `min_tier` at or past the
  /// chain length leaves only the harmonic tail. min_tier = 0 is exactly
  /// the facade walk.
  [[nodiscard]] Expected<core::Prediction> predict(
      std::span<const data::SampleRecord> recent,
      std::size_t min_tier = 0) const;

  /// The batched serving walk: out[i] receives windows[i]'s prediction
  /// (or its typed error), bit-identical to predict(windows[i], min_tier).
  /// Requires out.size() >= windows.size(). Instead of walking every tier
  /// per row, it walks every row per tier: for each tier (starting at
  /// `min_tier`), the windows still unanswered are feature-extracted,
  /// scattered into the scratch's column-major arena, and evaluated in one
  /// predict_columnar pass per model — many rows advance together through
  /// each tree level over contiguous feature columns. Windows no tier can
  /// serve fall to the harmonic tail, exactly like predict(). The walk
  /// runs on the calling thread and never enters the pool.
  ///
  /// Allocation-free given a scratch with max_windows() >= windows.size()
  /// and max_width() >= this->max_width() (reserve it cold; Server does so
  /// at construction and reload; tests/test_alloc.cpp counts it).
  /// serve::Server::poll calls it once per lane; a root in the lint
  /// reachability proof.
  void predict_spans_columnar(
      std::span<const std::span<const data::SampleRecord>> windows,
      std::span<Expected<core::Prediction>> out, PredictScratch& scratch,
      std::size_t min_tier = 0) const;

  /// The model tier chain (most capable first), as in Lumos5G.
  const std::vector<data::FeatureSetSpec>& tier_specs() const noexcept {
    return specs_;
  }
  bool tier_compiled(std::size_t i) const noexcept {
    return i < tiers_.size() && tiers_[i].compiled;
  }
  /// Tier `i`'s flattened models; only meaningful when tier_compiled(i).
  /// serve::save_bytes stores these arrays.
  const FlatForest& tier_regressor(std::size_t i) const noexcept {
    return tiers_[i].regressor;
  }
  const FlatClassifier& tier_classifier(std::size_t i) const noexcept {
    return tiers_[i].classifier;
  }

  /// Total flattened nodes across all tiers (serving-memory footprint:
  /// 16 bytes each).
  std::size_t n_nodes() const noexcept;

  /// Widest tier's feature-row width — what a PredictScratch must be
  /// reserved for to serve this predictor.
  std::size_t max_width() const noexcept { return max_width_; }

 private:
  friend Expected<Predictor> load_predictor(std::string_view bytes);

  struct FlatTier {
    FlatForest regressor;
    FlatClassifier classifier;
    bool compiled = false;
  };

  /// The tier-chain setup compile() and load_predictor() share: every
  /// tier's feature-row width, and the widest; no tier compiled.
  Predictor(data::FeatureConfig features,
            std::vector<data::FeatureSetSpec> specs);

  data::FeatureConfig features_;
  std::vector<data::FeatureSetSpec> specs_;
  std::vector<FlatTier> tiers_;
  // Precomputed at compile() so predict() never recomputes a width per
  // call.
  std::vector<std::size_t> tier_widths_;
  std::size_t max_width_ = 0;
};

}  // namespace lumos::serve
