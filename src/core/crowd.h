// Crowdsourced map aggregation (paper §2.2 / §8.2): Lumos5G envisions a
// user-carrier collaborative platform where many UEs contribute
// measurement campaigns and the platform fuses them into one throughput
// map. This module merges per-contributor datasets/maps with basic
// quality weighting and reports per-cell contributor counts so consumers
// can judge confidence.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/throughput_map.h"
#include "data/dataset.h"

namespace lumos::core {

/// One contributor's upload: a cleaned dataset plus a device quality
/// weight (e.g. derived from its GPS accuracy history).
struct Contribution {
  data::Dataset samples;
  double weight = 1.0;
};

struct CrowdCellStats {
  std::size_t contributors = 0;   ///< distinct uploads covering the cell
  std::size_t samples = 0;
  double mean_mbps = 0.0;         ///< weighted mean across contributions
  double between_user_cv = 0.0;   ///< dispersion of per-user cell means
};

/// Aggregated crowd map over ~2 m cells (pixel/cell_px grid).
class CrowdMap {
 public:
  [[nodiscard]] static CrowdMap build(const std::vector<Contribution>& uploads,
                        std::int64_t cell_px = 2);

  const std::map<std::pair<std::int64_t, std::int64_t>, CrowdCellStats>&
  cells() const noexcept {
    return cells_;
  }

  [[nodiscard]] const CrowdCellStats* lookup(
      std::int64_t px, std::int64_t py) const noexcept;

  /// Cells covered by at least `min_contributors` distinct uploads —
  /// the "trustworthy" fraction of the map.
  double fraction_with_support(std::size_t min_contributors) const noexcept;

 private:
  std::map<std::pair<std::int64_t, std::int64_t>, CrowdCellStats> cells_;
  std::int64_t cell_px_ = 2;
};

}  // namespace lumos::core
