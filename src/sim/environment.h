// The radio environment of one study area: panels, obstacles, reflective
// zones, the LTE fallback layer and the propagation model, anchored to a
// geographic origin so samples carry real (lat, lon).
#pragma once

#include <string>
#include <vector>

#include "geo/local_frame.h"
#include "sim/fading.h"
#include "sim/lte.h"
#include "sim/obstacle.h"
#include "sim/panel.h"
#include "sim/propagation.h"

namespace lumos::sim {

/// Circular zone in which blocked paths are partially salvaged by
/// reflections off surrounding structures.
struct ReflectiveZone {
  geo::Vec2 center;
  double radius_m = 0.0;
};

class Environment {
 public:
  Environment(std::string name, geo::LatLon origin,
              PropagationConfig prop = {}, FadingConfig fading = {},
              LteConfig lte = {})
      : name_(std::move(name)),
        origin_(origin),
        frame_(origin),
        prop_(prop),
        fading_cfg_(fading),
        lte_(lte) {}

  const std::string& name() const noexcept { return name_; }
  const geo::LocalFrame& frame() const noexcept { return frame_; }

  void add_panel(Panel p) { panels_.push_back(p); }
  void add_wall(Wall w) { walls_.push_back(std::move(w)); }
  void add_reflective_zone(ReflectiveZone z) { zones_.push_back(z); }

  const std::vector<Panel>& panels() const noexcept { return panels_; }

  /// Whether panel locations/orientations were surveyed (needed for the T
  /// feature group; false for the Loop area per the paper).
  bool panels_surveyed() const noexcept { return panels_surveyed_; }
  void set_panels_surveyed(bool v) noexcept { panels_surveyed_ = v; }

  bool in_reflective_zone(geo::Vec2 pos) const noexcept;

  /// Mean (pre-fading, pre-sharing) capacity of panel index `i` for `ue`.
  double mean_capacity(std::size_t i, const UEContext& ue) const noexcept;

  const FadingConfig& fading_config() const noexcept { return fading_cfg_; }
  const LteModel& lte() const noexcept { return lte_; }

 private:
  std::string name_;
  geo::LatLon origin_;
  geo::LocalFrame frame_;
  std::vector<Panel> panels_;
  std::vector<Wall> walls_;
  std::vector<ReflectiveZone> zones_;
  PropagationModel prop_;
  FadingConfig fading_cfg_;
  LteModel lte_;
  bool panels_surveyed_ = true;
};

}  // namespace lumos::sim
