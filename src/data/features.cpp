#include "data/features.h"

#include "common/contracts.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "geo/coordinates.h"

namespace lumos::data {

FeatureSetSpec FeatureSetSpec::parse(const std::string& spec) {
  FeatureSetSpec s;
  for (char raw : spec) {
    const char c = static_cast<char>(std::toupper(static_cast<unsigned char>(raw)));
    switch (c) {
      case 'L': s.L = true; break;
      case 'M': s.M = true; break;
      case 'T': s.T = true; break;
      case 'C': s.C = true; break;
      case '+':
      case ' ': break;
      default:
        throw std::invalid_argument("FeatureSetSpec::parse: bad group '" +
                                    std::string(1, raw) + "'");
    }
  }
  if (!s.L && !s.M && !s.T && !s.C) {
    throw std::invalid_argument("FeatureSetSpec::parse: empty spec");
  }
  return s;
}

std::string FeatureSetSpec::name() const {
  std::string out;
  const auto add = [&out](const char* g) {
    if (!out.empty()) out += '+';
    out += g;
  };
  if (L) add("L");
  if (T) add("T");
  if (M) add("M");
  if (C) add("C");
  return out;
}

int throughput_class(double mbps, const FeatureConfig& cfg) noexcept {
  if (mbps < cfg.low_mbps) return 0;
  if (mbps < cfg.high_mbps) return 1;
  return 2;
}

std::vector<std::string> feature_names(const FeatureSetSpec& spec,
                                       const FeatureConfig& cfg) {
  std::vector<std::string> names;
  if (spec.L) {
    names.emplace_back("pixel_x");
    names.emplace_back("pixel_y");
  }
  if (spec.T) {
    names.emplace_back("ue_panel_distance_m");
    names.emplace_back("theta_p_deg");
    names.emplace_back("theta_m_deg");
  }
  if (spec.M) {
    names.emplace_back("moving_speed_mps");
    // Compass is included only when tower geometry is absent: the paper's
    // T+M combination replaces raw compass with the panel-relative angles
    // (Table 6).
    if (!spec.T) {
      names.emplace_back("compass_sin");
      names.emplace_back("compass_cos");
    }
  }
  if (spec.C) {
    for (int lag = 0; lag < cfg.throughput_lags; ++lag) {
      names.push_back("tput_lag_" + std::to_string(lag));
    }
    names.emplace_back("radio_type");
    names.emplace_back("lte_rsrp");
    names.emplace_back("nr_ssrsrp");
    names.emplace_back("horizontal_handoff");
    names.emplace_back("vertical_handoff");
  }
  return names;
}

namespace {

/// Writes the feature vector for position `i` of a record sequence into
/// `row`, which must hold feature_width() doubles. Allocation-free — this
/// sits under the serving hot path (feature_row_into). `rec_at(i - lag)`
/// must be valid for all configured lags.
template <typename GetRecord>
void fill_row_impl(GetRecord&& rec_at, std::size_t i,
                   const FeatureSetSpec& spec, const FeatureConfig& cfg,
                   std::span<double> row) {
  LUMOS_EXPECTS(!spec.C ||
                    i + 1 >= static_cast<std::size_t>(cfg.throughput_lags),
                "fill_row: C-group lags reach before the run start");
  std::size_t k = 0;
  const SampleRecord& s = rec_at(i);
  if (spec.L) {
    row[k++] = static_cast<double>(s.pixel_x);
    row[k++] = static_cast<double>(s.pixel_y);
  }
  if (spec.T) {
    row[k++] = s.ue_panel_distance_m;
    row[k++] = s.theta_p_deg;
    row[k++] = s.theta_m_deg;
  }
  if (spec.M) {
    row[k++] = s.moving_speed_mps;
    if (!spec.T) {
      const double rad = geo::deg2rad(s.compass_deg);
      row[k++] = std::sin(rad);
      row[k++] = std::cos(rad);
    }
  }
  if (spec.C) {
    for (int lag = 0; lag < cfg.throughput_lags; ++lag) {
      row[k++] = rec_at(i - static_cast<std::size_t>(lag)).throughput_mbps;
    }
    row[k++] = s.radio_type == RadioType::kNrMmWave ? 1.0 : 0.0;
    row[k++] = s.lte_rsrp;
    row[k++] = s.nr_ssrsrp;
    row[k++] = s.horizontal_handoff ? 1.0 : 0.0;
    row[k++] = s.vertical_handoff ? 1.0 : 0.0;
  }
}

/// Convenience wrapper over a run of dataset indices (training path; the
/// resize is a no-op after the first row).
void fill_row(const Dataset& ds, const std::vector<std::size_t>& run,
              std::size_t i, const FeatureSetSpec& spec,
              const FeatureConfig& cfg, std::vector<double>& row) {
  row.resize(feature_width(spec, cfg));
  fill_row_impl(
      [&](std::size_t j) -> const SampleRecord& { return ds[run[j]]; }, i,
      spec, cfg, row);
}

std::size_t min_history(const FeatureSetSpec& spec, const FeatureConfig& cfg) {
  return spec.C ? static_cast<std::size_t>(cfg.throughput_lags - 1) : 0;
}

bool contiguous(double t_prev, double t_next, double max_gap_s) {
  const double dt = t_next - t_prev;
  return std::isfinite(dt) && dt >= 0.0 && dt <= max_gap_s;
}

/// Per-run segment ids: rows k-1 and k share a segment iff their
/// timestamps are contiguous under max_gap_s; a window is gap-free iff
/// its first and last row share a segment. With the check disabled
/// (max_gap_s <= 0) everything is segment 0.
std::vector<std::uint32_t> run_segments(const Dataset& ds,
                                        const std::vector<std::size_t>& run,
                                        double max_gap_s) {
  std::vector<std::uint32_t> seg(run.size(), 0);
  if (max_gap_s <= 0.0) return seg;
  for (std::size_t k = 1; k < run.size(); ++k) {
    const bool ok = contiguous(ds[run[k - 1]].timestamp_s,
                               ds[run[k]].timestamp_s, max_gap_s);
    seg[k] = seg[k - 1] + (ok ? 0u : 1u);
  }
  return seg;
}

}  // namespace

const char* feature_config_error(const FeatureConfig& cfg) noexcept {
  if (cfg.throughput_lags < 1 || cfg.throughput_lags > kMaxThroughputLags) {
    return "throughput_lags must be in [1, kMaxThroughputLags]";
  }
  if (cfg.horizon < 1) return "horizon must be >= 1";
  return nullptr;
}

BuiltFeatures build_features(const Dataset& ds, const FeatureSetSpec& spec,
                             const FeatureConfig& cfg) {
  if (const char* why = feature_config_error(cfg)) {
    throw std::invalid_argument(std::string("build_features: ") + why);
  }
  BuiltFeatures out;
  out.feature_names = feature_names(spec, cfg);

  const std::size_t hist = min_history(spec, cfg);
  const auto horizon = static_cast<std::size_t>(cfg.horizon);
  std::vector<double> row;
  for (const auto& run : ds.runs()) {
    if (run.size() <= hist + horizon) continue;
    const auto seg = run_segments(ds, run, cfg.max_gap_s);
    for (std::size_t i = hist; i + horizon < run.size(); ++i) {
      const SampleRecord& s = ds[run[i]];
      if (spec.T && !s.has_panel_geometry()) continue;
      // The window [i - hist, i + horizon] must not straddle a gap.
      if (seg[i - hist] != seg[i + horizon]) continue;
      fill_row(ds, run, i, spec, cfg, row);
      out.x.push_row(row);
      const double target = ds[run[i + horizon]].throughput_mbps;
      out.y_reg.push_back(target);
      out.y_cls.push_back(throughput_class(target, cfg));
      out.source_index.push_back(run[i]);
    }
  }
  return out;
}

BuiltSequences build_sequences(const Dataset& ds, const FeatureSetSpec& spec,
                               const FeatureConfig& cfg,
                               const SequenceConfig& seq) {
  if (seq.seq_len == 0 || seq.out_len == 0) {
    throw std::invalid_argument("build_sequences: zero window size");
  }
  BuiltSequences out;
  out.input_dim = feature_names(spec, cfg).size();

  const std::size_t hist = min_history(spec, cfg);
  std::vector<double> row;
  for (const auto& run : ds.runs()) {
    if (run.size() < hist + seq.seq_len + seq.out_len) continue;
    const auto seg = run_segments(ds, run, cfg.max_gap_s);
    // Window end index e: window covers [e - seq_len + 1, e];
    // targets cover (e, e + out_len].
    for (std::size_t e = hist + seq.seq_len - 1; e + seq.out_len < run.size();
         ++e) {
      bool usable = true;
      if (spec.T) {
        for (std::size_t t = e + 1 - seq.seq_len; t <= e && usable; ++t) {
          usable = ds[run[t]].has_panel_geometry();
        }
      }
      // The full consumed span — lag history of the first window element
      // through the last target — must not straddle a gap.
      if (seg[e + 1 - seq.seq_len - hist] != seg[e + seq.out_len]) {
        usable = false;
      }
      if (!usable) continue;
      nn::SeqSample sample;
      sample.x.reserve(seq.seq_len * out.input_dim);
      for (std::size_t t = e + 1 - seq.seq_len; t <= e; ++t) {
        fill_row(ds, run, t, spec, cfg, row);
        sample.x.insert(sample.x.end(), row.begin(), row.end());
      }
      sample.y.reserve(seq.out_len);
      for (std::size_t k = 1; k <= seq.out_len; ++k) {
        sample.y.push_back(ds[run[e + k]].throughput_mbps);
      }
      out.samples.push_back(std::move(sample));
      out.source_index.push_back(run[e]);
    }
  }
  return out;
}

std::size_t feature_width(const FeatureSetSpec& spec,
                          const FeatureConfig& cfg) noexcept {
  std::size_t w = 0;
  if (spec.L) w += 2;
  if (spec.T) w += 3;
  if (spec.M) w += spec.T ? 1 : 3;
  if (spec.C) w += static_cast<std::size_t>(cfg.throughput_lags) + 5;
  return w;
}

bool feature_row_into(std::span<const SampleRecord> window,
                      const FeatureSetSpec& spec, const FeatureConfig& cfg,
                      std::span<double> out) {
  const std::size_t hist = spec.C
                               ? static_cast<std::size_t>(cfg.throughput_lags)
                               : 1;
  if (window.size() < hist) return false;
  const std::size_t i = window.size() - 1;
  if (spec.T && !window[i].has_panel_geometry()) return false;
  if (cfg.max_gap_s > 0.0) {
    // Only the consumed history (last `hist` records) must be gap-free.
    for (std::size_t k = window.size() - hist + 1; k <= i; ++k) {
      if (!contiguous(window[k - 1].timestamp_s, window[k].timestamp_s,
                      cfg.max_gap_s)) {
        return false;
      }
    }
  }
  LUMOS_EXPECTS(out.size() >= feature_width(spec, cfg),
                "feature_row_into: output span narrower than feature_width");
  fill_row_impl(
      [&](std::size_t j) -> const SampleRecord& { return window[j]; }, i,
      spec, cfg, out);
  return true;
}

std::optional<std::vector<double>> feature_row_from_window(
    std::span<const SampleRecord> window, const FeatureSetSpec& spec,
    const FeatureConfig& cfg) {
  std::vector<double> row(feature_width(spec, cfg));
  if (!feature_row_into(window, spec, cfg, row)) return std::nullopt;
  return row;
}

void Standardizer::fit(const ml::FeatureMatrix& x) {
  const std::size_t d = x.cols(), n = x.rows();
  mean_.assign(d, 0.0);
  sd_.assign(d, 1.0);
  if (n == 0) return;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) mean_[c] += x.at(r, c);
  }
  for (auto& m : mean_) m /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      const double dv = x.at(r, c) - mean_[c];
      var[c] += dv * dv;
    }
  }
  for (std::size_t c = 0; c < d; ++c) {
    const double s = std::sqrt(var[c] / static_cast<double>(n));
    sd_[c] = s > 1e-12 ? s : 1.0;
  }
}

void Standardizer::fit_sequences(const std::vector<nn::SeqSample>& samples,
                                 std::size_t input_dim) {
  mean_.assign(input_dim, 0.0);
  sd_.assign(input_dim, 1.0);
  std::size_t count = 0;
  for (const auto& s : samples) count += s.x.size() / input_dim;
  if (count == 0) return;
  for (const auto& s : samples) {
    for (std::size_t i = 0; i < s.x.size(); ++i) mean_[i % input_dim] += s.x[i];
  }
  for (auto& m : mean_) m /= static_cast<double>(count);
  std::vector<double> var(input_dim, 0.0);
  for (const auto& s : samples) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      const double dv = s.x[i] - mean_[i % input_dim];
      var[i % input_dim] += dv * dv;
    }
  }
  for (std::size_t c = 0; c < input_dim; ++c) {
    const double sd = std::sqrt(var[c] / static_cast<double>(count));
    sd_[c] = sd > 1e-12 ? sd : 1.0;
  }
}

void Standardizer::transform(ml::FeatureMatrix& x) const {
  for (std::size_t r = 0; r < x.rows(); ++r) {
    auto row = x.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      row[c] = (row[c] - mean_[c]) / sd_[c];
    }
  }
}

void Standardizer::transform_sequences(
    std::vector<nn::SeqSample>& samples) const {
  const std::size_t d = mean_.size();
  for (auto& s : samples) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      const std::size_t c = i % d;
      s.x[i] = (s.x[i] - mean_[c]) / sd_[c];
    }
  }
}

void TargetScaler::fit(std::span<const double> y) {
  mean_ = 0.0;
  sd_ = 1.0;
  if (y.empty()) return;
  for (double v : y) mean_ += v;
  mean_ /= static_cast<double>(y.size());
  double var = 0.0;
  for (double v : y) var += (v - mean_) * (v - mean_);
  const double sd = std::sqrt(var / static_cast<double>(y.size()));
  if (sd > 1e-12) sd_ = sd;
}

void TargetScaler::transform_sequence_targets(
    std::vector<nn::SeqSample>& samples) const {
  for (auto& s : samples) {
    for (auto& v : s.y) v = transform(v);
  }
}

}  // namespace lumos::data
