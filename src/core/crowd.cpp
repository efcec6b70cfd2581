#include "core/crowd.h"

#include <cmath>

namespace lumos::core {
namespace {

std::pair<std::int64_t, std::int64_t> cell_key(std::int64_t px,
                                               std::int64_t py,
                                               std::int64_t cell_px) {
  const auto fx = px >= 0 ? px / cell_px : (px - cell_px + 1) / cell_px;
  const auto fy = py >= 0 ? py / cell_px : (py - cell_px + 1) / cell_px;
  return {fx, fy};
}

}  // namespace

CrowdMap CrowdMap::build(const std::vector<Contribution>& uploads,
                         std::int64_t cell_px) {
  CrowdMap out;
  out.cell_px_ = std::max<std::int64_t>(1, cell_px);

  struct UserAcc {
    double sum = 0.0;
    std::size_t n = 0;
  };
  struct CellAcc {
    // Per-contributor accumulation first, so one heavy uploader cannot
    // swamp the between-user statistics.
    std::vector<std::pair<UserAcc, double>> users;  // (acc, weight)
    std::size_t samples = 0;
  };
  std::map<std::pair<std::int64_t, std::int64_t>, CellAcc> acc;

  for (const auto& upload : uploads) {
    std::map<std::pair<std::int64_t, std::int64_t>, UserAcc> mine;
    for (const auto& s : upload.samples.samples()) {
      auto& u = mine[cell_key(s.pixel_x, s.pixel_y, out.cell_px_)];
      u.sum += s.throughput_mbps;
      ++u.n;
    }
    for (const auto& [key, u] : mine) {
      auto& cell = acc[key];
      cell.users.emplace_back(u, upload.weight);
      cell.samples += u.n;
    }
  }

  for (const auto& [key, cell] : acc) {
    CrowdCellStats stats;
    stats.contributors = cell.users.size();
    stats.samples = cell.samples;
    double wsum = 0.0, mean = 0.0;
    for (const auto& [u, w] : cell.users) {
      mean += w * (u.sum / static_cast<double>(u.n));
      wsum += w;
    }
    if (wsum > 0.0) mean /= wsum;
    stats.mean_mbps = mean;
    if (cell.users.size() >= 2 && mean > 0.0) {
      double var = 0.0;
      for (const auto& [u, w] : cell.users) {
        const double m = u.sum / static_cast<double>(u.n);
        var += (m - mean) * (m - mean);
      }
      var /= static_cast<double>(cell.users.size() - 1);
      stats.between_user_cv = std::sqrt(var) / mean;
    }
    out.cells_[key] = stats;
  }
  return out;
}

const CrowdCellStats* CrowdMap::lookup(std::int64_t px,
                                       std::int64_t py) const noexcept {
  const auto it = cells_.find(cell_key(px, py, cell_px_));
  return it == cells_.end() ? nullptr : &it->second;
}

double CrowdMap::fraction_with_support(
    std::size_t min_contributors) const noexcept {
  if (cells_.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& [key, c] : cells_) {
    if (c.contributors >= min_contributors) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(cells_.size());
}

}  // namespace lumos::core
