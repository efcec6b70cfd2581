// Deterministic fault injection for collected traces — the dirty-data
// conditions real UE measurement campaigns exhibit and crowdsourced 5G
// studies call out as the dominant data-quality problem: GPS fixes drop
// out or jitter far beyond the reported accuracy, compass readings spike,
// SignalStrength parses fail (especially around 4G/LTE fallback), whole
// seconds are lost, and rows arrive duplicated or out of order. Each
// impairment is independently configurable with a rate, so any existing
// bench or test can re-run against an impaired trace; the injector is a
// pure function of (config, seed, input) and with all rates at zero the
// output is bit-identical to the input.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.h"

namespace lumos::sim {

/// Per-sample (or per-field) impairment probabilities, all in [0, 1] and
/// all zero by default (injector is an identity transform).
struct FaultConfig {
  // --- location ---
  double gps_dropout = 0.0;  ///< fix lost: lat/lon/accuracy become NaN
  double gps_jitter = 0.0;   ///< degraded fix: position error far beyond
                             ///< the reported accuracy
  double gps_jitter_sigma_m = 15.0;

  // --- compass ---
  double compass_noise = 0.0;  ///< magnetometer spike on this reading
  double compass_sigma_deg = 45.0;

  // --- radio telemetry ---
  /// SignalStrength parse failure: all six dBm fields become NaN. Applied
  /// at this rate on 5G seconds and at 4x the rate (capped at 1) on LTE
  /// fallback seconds — parse failures cluster around RAT transitions.
  double signal_loss = 0.0;

  // --- per-second logging ---
  double sample_loss = 0.0;   ///< the row is never logged
  double duplicate = 0.0;     ///< the row is logged twice (same timestamp)
  double out_of_order = 0.0;  ///< the row lands before its predecessor

  // --- storage ---
  /// Per-field CSV garbling rate used by corrupt_csv() (empty field,
  /// non-numeric junk, or an out-of-range literal).
  double field_corruption = 0.0;

  /// Convenience: every rate above (except the amplitude knobs) set to `r`.
  static FaultConfig uniform(double r) noexcept;
};

class FaultInjector {
 public:
  FaultInjector(FaultConfig cfg, std::uint64_t seed) noexcept
      : cfg_(cfg), seed_(seed) {}

  /// Returns an impaired copy of `ds`. Deterministic for a fixed
  /// (config, seed); with all rates zero the result is bit-identical to
  /// `ds`. Row order is preserved except where duplicate / sample-loss /
  /// out-of-order faults apply; swaps never cross a run boundary.
  data::Dataset inject(const data::Dataset& ds) const;

  /// Garbles individual fields of the CSV at `in_path` into `out_path`
  /// (header preserved): each data field is independently replaced, at
  /// `cfg.field_corruption` rate, with an empty string, non-numeric junk,
  /// or an out-of-range numeric literal. Returns the number of fields
  /// corrupted. Throws lumos-style std::runtime_error on I/O failure.
  std::size_t corrupt_csv(const std::string& in_path,
                          const std::string& out_path) const;

  const FaultConfig& config() const noexcept { return cfg_; }

 private:
  FaultConfig cfg_;
  std::uint64_t seed_;
};

}  // namespace lumos::sim
