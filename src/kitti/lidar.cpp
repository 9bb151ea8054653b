#include "kitti/lidar.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "kitti/render.hpp"

namespace roadfusion::kitti {

std::vector<LidarPoint> scan(const Scene& scene, const LidarConfig& config,
                             Rng& rng) {
  ROADFUSION_CHECK(config.beams > 0 && config.azimuth_steps > 0,
                   "lidar: bad scan grid");
  ROADFUSION_CHECK(config.elevation_max_deg > config.elevation_min_deg,
                   "lidar: bad elevation range");
  std::vector<LidarPoint> points;
  points.reserve(static_cast<size_t>(config.beams) *
                 static_cast<size_t>(config.azimuth_steps));
  const vision::Vec3 origin{0.0, config.mount_height, 0.0};
  const double az_span = config.fov_azimuth_deg * M_PI / 180.0;
  const double el_min = config.elevation_min_deg * M_PI / 180.0;
  const double el_max = config.elevation_max_deg * M_PI / 180.0;
  for (int beam = 0; beam < config.beams; ++beam) {
    const double elevation =
        el_min + (el_max - el_min) * beam /
                     std::max(1, config.beams - 1);
    for (int step = 0; step < config.azimuth_steps; ++step) {
      const double azimuth =
          -az_span / 2.0 +
          az_span * (static_cast<double>(step) + 0.5) / config.azimuth_steps;
      vision::Vec3 dir;
      dir.x = std::sin(azimuth) * std::cos(elevation);
      dir.y = std::sin(elevation);
      dir.z = std::cos(azimuth) * std::cos(elevation);
      const RayHit hit = cast_ray(scene, origin, dir, config.max_range);
      if (hit.surface == RayHit::Surface::kSky) {
        continue;
      }
      if (rng.bernoulli(config.dropout)) {
        continue;
      }
      const double noisy_range =
          std::max(0.1, hit.range + rng.normal(0.0, config.range_noise_sigma));
      LidarPoint point;
      point.x = origin.x + noisy_range * dir.x;
      point.y = origin.y + noisy_range * dir.y;
      point.z = origin.z + noisy_range * dir.z;
      point.range = noisy_range;
      points.push_back(point);
    }
  }
  return points;
}

Tensor project_to_sparse_depth(const std::vector<LidarPoint>& points,
                               const Camera& camera) {
  Tensor depth(tensor::Shape::chw(1, camera.height(), camera.width()));
  float* data = depth.raw();
  const int64_t w = camera.width();
  const int64_t h = camera.height();
  for (const LidarPoint& point : points) {
    const auto pixel = camera.project(vision::Vec3{point.x, point.y, point.z});
    if (!pixel.has_value()) {
      continue;
    }
    // floor(p) lands in [0, n) exactly when p does, for the integer n; and
    // there truncation is floor. NaN and +-inf fail the test before any
    // cast.
    if (!(pixel->u >= 0.0 && pixel->u < static_cast<double>(w) &&
          pixel->v >= 0.0 && pixel->v < static_cast<double>(h))) {
      continue;
    }
    const int64_t u = static_cast<int64_t>(pixel->u);
    const int64_t v = static_cast<int64_t>(pixel->v);
    float& cell = data[v * w + u];
    const float range = static_cast<float>(point.range);
    if (cell == 0.0f || range < cell) {
      cell = range;  // keep the nearest return, matching real projections
    }
  }
  return depth;
}

}  // namespace roadfusion::kitti
