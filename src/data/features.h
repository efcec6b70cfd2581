// Composable feature groups (paper §5.1, Table 6).
//
//   L : pixelized location coordinates
//   M : UE moving speed + compass direction
//   T : UE-panel distance + positional angle + mobility angle
//   C : past throughput + radio type + signal strengths + handoff flags
//
// A FeatureSetSpec composes any subset; build_features() materializes the
// supervised design matrix (current features -> next-slot throughput) and
// build_sequences() materializes sliding windows for Seq2Seq.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/types.h"
#include "nn/seq2seq.h"

namespace lumos::data {

/// Which primary feature groups are active.
struct FeatureSetSpec {
  bool L = false;
  bool M = false;
  bool T = false;
  bool C = false;

  /// Parses "L", "L+M", "T+M+C", ... (case-insensitive, order-free).
  [[nodiscard]] static FeatureSetSpec parse(const std::string& spec);

  [[nodiscard]] std::string name() const;

  friend bool operator==(const FeatureSetSpec&, const FeatureSetSpec&) = default;
};

struct FeatureConfig {
  int throughput_lags = 5;   ///< past-throughput features in group C
  int horizon = 1;           ///< predict throughput at t + horizon seconds
  double low_mbps = 300.0;   ///< class boundary low/medium (paper §5.2)
  double high_mbps = 700.0;  ///< class boundary medium/high
  /// Gap-aware windowing: when > 0, no feature/target window may span two
  /// samples whose timestamps differ by more than this many seconds (or
  /// run backwards) — lag features across a logging outage would silently
  /// mix unrelated seconds. 0 disables the check (legacy behaviour).
  double max_gap_s = 0.0;
};

/// Largest accepted FeatureConfig::throughput_lags: far above any lag
/// count the experiments use (20), and small enough that a feature row
/// stays a few KiB.
inline constexpr int kMaxThroughputLags = 1024;

/// The one validity rule for a FeatureConfig: 1 <= throughput_lags <=
/// kMaxThroughputLags and horizon >= 1. Returns the broken rule, or
/// nullptr when the config is valid. build_features throws on it and the
/// artifact reader (serve::load_predictor) answers kParseError.
[[nodiscard]] const char* feature_config_error(
    const FeatureConfig& cfg) noexcept;

/// Classifies a throughput value into {0: low, 1: medium, 2: high}.
[[nodiscard]] int throughput_class(double mbps,
                                   const FeatureConfig& cfg) noexcept;

inline constexpr int kNumThroughputClasses = 3;

/// A materialized supervised dataset.
struct BuiltFeatures {
  ml::FeatureMatrix x;
  std::vector<double> y_reg;  ///< future throughput (Mbps)
  std::vector<int> y_cls;     ///< class of y_reg
  std::vector<std::string> feature_names;
  /// Index of the source record (feature time t) in the original dataset.
  std::vector<std::size_t> source_index;
};

/// Builds per-sample features. Throws std::invalid_argument when
/// feature_config_error(cfg) names a broken rule. Samples whose run is too
/// short for the configured lags/horizon are skipped; if `spec.T` is set,
/// samples without panel geometry are skipped too (paper: no T results for
/// the Loop area). With cfg.max_gap_s > 0, windows that would straddle a
/// timestamp discontinuity are skipped as well.
[[nodiscard]] BuiltFeatures build_features(
    const Dataset& ds, const FeatureSetSpec& spec,
                             const FeatureConfig& cfg = {});

/// Feature names only (stable order), without building the matrix.
[[nodiscard]] std::vector<std::string> feature_names(
    const FeatureSetSpec& spec,
                                       const FeatureConfig& cfg = {});

/// Width of one feature row for this spec/config — the size a caller must
/// provide to feature_row_into(). Equals feature_names().size() without
/// allocating.
[[nodiscard]] std::size_t feature_width(const FeatureSetSpec& spec,
                                        const FeatureConfig& cfg = {}) noexcept;

/// Allocation-free core of feature_row_from_window(): writes the feature
/// row for `window` (last element = prediction reference time) into `out`,
/// which must hold at least feature_width() doubles. Returns false — and
/// writes nothing — if the window is too short for the configured lags,
/// lacks panel geometry while `spec.T` is set, or (with cfg.max_gap_s > 0)
/// the consumed history spans a timestamp discontinuity. This is the
/// serving hot path's entry point (serve::Predictor keeps a reusable row
/// arena and calls this).
[[nodiscard]] bool feature_row_into(std::span<const SampleRecord> window,
                                    const FeatureSetSpec& spec,
                                    const FeatureConfig& cfg,
                                    std::span<double> out);

/// Allocating convenience wrapper over feature_row_into() for training and
/// tests. Returns nullopt when the window is unusable.
[[nodiscard]] std::optional<std::vector<double>> feature_row_from_window(
    std::span<const SampleRecord> window, const FeatureSetSpec& spec,
    const FeatureConfig& cfg = {});

/// Sliding windows for Seq2Seq: input = seq_len consecutive feature
/// vectors; output = the next out_len throughput values.
struct SequenceConfig {
  std::size_t seq_len = 20;
  std::size_t out_len = 1;
};

struct BuiltSequences {
  std::vector<nn::SeqSample> samples;
  std::size_t input_dim = 0;
  /// Dataset index of the last window element (prediction reference time).
  std::vector<std::size_t> source_index;
};

[[nodiscard]] BuiltSequences build_sequences(
    const Dataset& ds, const FeatureSetSpec& spec,
                               const FeatureConfig& cfg = {},
                               const SequenceConfig& seq = {});

/// Z-score standardizer for feature matrices and sequence samples.
class Standardizer {
 public:
  void fit(const ml::FeatureMatrix& x);

  /// Fits from sequence samples laid out as (seq_len x dim) windows.
  void fit_sequences(const std::vector<nn::SeqSample>& samples,
                     std::size_t input_dim);

  void transform(ml::FeatureMatrix& x) const;
  void transform_sequences(std::vector<nn::SeqSample>& samples) const;

  const std::vector<double>& mean() const noexcept { return mean_; }
  const std::vector<double>& stddev() const noexcept { return sd_; }

 private:
  std::vector<double> mean_, sd_;
};

/// Scalar z-score transform for regression targets.
class TargetScaler {
 public:
  void fit(std::span<const double> y);
  double transform(double v) const noexcept { return (v - mean_) / sd_; }
  double inverse(double v) const noexcept { return v * sd_ + mean_; }

  void transform_sequence_targets(std::vector<nn::SeqSample>& samples) const;

 private:
  double mean_ = 0.0;
  double sd_ = 1.0;
};

}  // namespace lumos::data
