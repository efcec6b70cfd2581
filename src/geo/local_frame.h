// A local East-North tangent-plane frame. The radio simulator does all of
// its geometry (LoS ray tests, distances, angles) in flat meters around an
// area origin; this frame converts between that plane and WGS-84.
#pragma once

#include "geo/coordinates.h"

namespace lumos::geo {

/// A 2-D vector/point in meters within a local tangent plane
/// (x = East, y = North).
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) noexcept {
    return {a.x + b.x, a.y + b.y};
  }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) noexcept {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr Vec2 operator*(Vec2 v, double s) noexcept {
    return {v.x * s, v.y * s};
  }
  friend constexpr Vec2 operator*(double s, Vec2 v) noexcept { return v * s; }
  friend bool operator==(const Vec2&, const Vec2&) = default;
};

constexpr double dot(Vec2 a, Vec2 b) noexcept { return a.x * b.x + a.y * b.y; }
constexpr double cross(Vec2 a, Vec2 b) noexcept { return a.x * b.y - a.y * b.x; }
double length(Vec2 v) noexcept;
double distance(Vec2 a, Vec2 b) noexcept;

/// Compass bearing (degrees clockwise from North) of vector `v`; {0,1} -> 0,
/// {1,0} -> 90.
double bearing_of(Vec2 v) noexcept;

/// Unit vector pointing along compass bearing `deg`.
Vec2 unit_from_bearing(double deg) noexcept;

/// Equirectangular local frame anchored at `origin`. Accurate to well under
/// 0.1% over the few-km extents of the paper's study areas.
class LocalFrame {
 public:
  explicit LocalFrame(const LatLon& origin) noexcept;

  /// Converts a geographic coordinate to local East/North meters.
  Vec2 to_local(const LatLon& ll) const noexcept;

  /// Converts local meters back to a geographic coordinate.
  LatLon to_geo(const Vec2& v) const noexcept;

 private:
  LatLon origin_;
  double m_per_deg_lat_;
  double m_per_deg_lon_;
};

}  // namespace lumos::geo
