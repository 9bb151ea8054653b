#include "vision/camera.hpp"

#include <cmath>

#include "common/check.hpp"

namespace roadfusion::vision {

Camera::Camera(int64_t width, int64_t height, double fov_deg,
               double cam_height, double pitch)
    : width_(width), height_(height), cam_height_(cam_height) {
  ROADFUSION_CHECK(width > 0 && height > 0, "camera: bad image size");
  ROADFUSION_CHECK(fov_deg > 1.0 && fov_deg < 179.0, "camera: bad fov");
  ROADFUSION_CHECK(cam_height > 0.0, "camera: height must be positive");
  const double fov = fov_deg * M_PI / 180.0;
  fx_ = static_cast<double>(width) / (2.0 * std::tan(fov / 2.0));
  fy_ = fx_;  // square pixels
  cx_ = static_cast<double>(width) / 2.0;
  cy_ = static_cast<double>(height) / 2.0;
  cos_pitch_ = std::cos(pitch);
  sin_pitch_ = std::sin(pitch);
}

Vec3 Camera::pixel_ray(double u, double v) const {
  // Camera frame: x right, y down, z forward; rotate by pitch about x.
  const double xc = (u - cx_) / fx_;
  const double yc = (v - cy_) / fy_;
  const double zc = 1.0;
  // World frame (x right, y up, z forward): pitch rotates the forward axis
  // downward, and the camera's y-down axis maps to world -y.
  Vec3 d;
  d.x = xc;
  d.y = -yc * cos_pitch_ - zc * sin_pitch_;
  d.z = -yc * sin_pitch_ + zc * cos_pitch_;
  const double norm = std::sqrt(d.x * d.x + d.y * d.y + d.z * d.z);
  d.x /= norm;
  d.y /= norm;
  d.z /= norm;
  return d;
}

std::optional<GroundPoint> Camera::pixel_to_ground(double u, double v) const {
  const Vec3 d = pixel_ray(u, v);
  if (d.y >= -1e-9) {
    return std::nullopt;  // at or above the horizon
  }
  const double t = cam_height_ / -d.y;
  GroundPoint g;
  g.x = t * d.x;
  g.z = t * d.z;
  if (g.z <= 0.0) {
    return std::nullopt;
  }
  return g;
}

std::optional<Pixel> Camera::ground_to_pixel(const GroundPoint& g) const {
  return project(Vec3{g.x, 0.0, g.z});
}

}  // namespace roadfusion::vision
