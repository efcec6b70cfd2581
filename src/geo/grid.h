// Spatial grid binning used for throughput maps (paper Fig. 6: 2m x 2m
// cells) and for per-geolocation statistics (pixelized coordinates).
#pragma once

#include <cstdint>
#include <functional>

#include "common/contracts.h"
#include "geo/local_frame.h"

namespace lumos::geo {

/// Key identifying one square cell of a uniform grid over the local frame.
struct GridCell {
  std::int32_t ix = 0;
  std::int32_t iy = 0;

  friend auto operator<=>(const GridCell&, const GridCell&) = default;
};

struct GridCellHash {
  std::size_t operator()(const GridCell& c) const noexcept {
    const auto ux = static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.ix));
    const auto uy = static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.iy));
    std::uint64_t h = (ux << 32) | uy;
    // SplitMix64 finalizer: excellent avalanche for composite keys.
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

/// Uniform square grid over a local tangent plane.
class Grid {
 public:
  /// `cell_m` is the cell edge length in meters (2.0 for the paper's maps).
  explicit Grid(double cell_m) noexcept : cell_m_(cell_m) {
    LUMOS_EXPECTS(cell_m > 0.0, "Grid: cell edge length must be positive");
  }

  [[nodiscard]] GridCell cell_of(Vec2 p) const noexcept;

  /// Center of a cell in local meters.
  [[nodiscard]] Vec2 center_of(GridCell c) const noexcept;

 private:
  double cell_m_;
};

}  // namespace lumos::geo
