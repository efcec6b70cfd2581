// The 5G throughput map (paper Figs. 3c and 6): per-grid-cell aggregate
// statistics over all measurements, renderable as a text heatmap and
// queryable by apps. Cells follow the paper's ~2m x 2m convention (grid of
// pixelized zoom-17 coordinates).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "data/dataset.h"

namespace lumos::core {

struct CellStats {
  std::size_t count = 0;
  double mean_mbps = 0.0;
  double stddev_mbps = 0.0;
  double cv = 0.0;            ///< coefficient of variation
  double coverage_5g = 0.0;   ///< fraction of seconds attached to 5G
};

class ThroughputMap {
 public:
  /// Builds a map from a cleaned dataset. `cell_px` merges that many zoom
  /// pixels per cell edge (2 -> ~2 m cells).
  [[nodiscard]] static ThroughputMap build(const data::Dataset& ds,
                                           std::int64_t cell_px = 2);

  const std::map<std::pair<std::int64_t, std::int64_t>, CellStats>& cells()
      const noexcept {
    return cells_;
  }

  /// Stats of the cell containing pixel (px, py); nullptr if unmeasured.
  [[nodiscard]] const CellStats* lookup(std::int64_t px,
                                        std::int64_t py) const noexcept;

  /// Fraction of measured cells whose mean exceeds `threshold_mbps`.
  double fraction_above(double threshold_mbps) const noexcept;

  /// Fraction of measured seconds on 5G (the paper's Fig. 3b-style
  /// coverage number).
  double coverage_5g() const noexcept;

  /// ASCII heatmap: rows are y cells (north up), one char per cell —
  /// '#' >= 1000 Mbps, '+' >= 700, 'o' >= 300, '.' >= 60, '_' < 60,
  /// ' ' unmeasured. Rendering is capped to `max_dim` cells per side.
  std::string render_ascii(int max_dim = 80) const;

 private:
  std::map<std::pair<std::int64_t, std::int64_t>, CellStats> cells_;
  std::int64_t cell_px_ = 2;
  std::size_t total_samples_ = 0;
  std::size_t samples_5g_ = 0;
};

}  // namespace lumos::core
