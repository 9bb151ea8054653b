// Pinhole camera model for a forward-looking automotive camera.
//
// World frame: x right, y up, z forward; the ground is the y = 0 plane and
// the camera sits at (0, height, 0) pitched down by `pitch` radians.
// Used by the synthetic renderer, the LiDAR projector and the BEV warp, so
// all three stay geometrically consistent.
#pragma once

#include <cstdint>
#include <optional>

namespace roadfusion::vision {

/// 3-D point in the world frame.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// Continuous pixel coordinate (u right, v down).
struct Pixel {
  double u = 0.0;
  double v = 0.0;
};

/// Point on the ground plane (y = 0): x lateral, z forward.
struct GroundPoint {
  double x = 0.0;
  double z = 0.0;
};

/// Forward-looking pinhole camera above the ground plane.
class Camera {
 public:
  /// `width`/`height`: image size in pixels; `fov_deg`: horizontal field of
  /// view; `cam_height`: metres above ground; `pitch`: downward tilt in
  /// radians (positive looks down).
  Camera(int64_t width, int64_t height, double fov_deg, double cam_height,
         double pitch);

  int64_t width() const { return width_; }
  int64_t height() const { return height_; }
  double cam_height() const { return cam_height_; }

  /// Unit ray direction in the world frame through pixel (u, v).
  Vec3 pixel_ray(double u, double v) const;

  /// Intersection of the pixel ray with the ground plane, or nullopt when
  /// the ray points at or above the horizon.
  std::optional<GroundPoint> pixel_to_ground(double u, double v) const;

  /// Projects a world point to the image; nullopt when behind the camera.
  /// Inline: the LiDAR projection calls it once per point.
  std::optional<Pixel> project(const Vec3& point) const {
    // World -> camera: subtract camera position, rotate by -pitch about x.
    const double rel_x = point.x;
    const double rel_y = point.y - cam_height_;
    const double rel_z = point.z;
    const double xc = rel_x;
    const double yc = -(rel_y * cos_pitch_ + rel_z * sin_pitch_);
    const double zc = -rel_y * sin_pitch_ + rel_z * cos_pitch_;
    if (zc <= 1e-9) {
      return std::nullopt;
    }
    Pixel p;
    p.u = cx_ + fx_ * xc / zc;
    p.v = cy_ + fy_ * yc / zc;
    return p;
  }

  /// Projects a ground point to the image.
  std::optional<Pixel> ground_to_pixel(const GroundPoint& g) const;

 private:
  int64_t width_;
  int64_t height_;
  double fx_;
  double fy_;
  double cx_;
  double cy_;
  double cam_height_;
  double cos_pitch_;
  double sin_pitch_;
};

}  // namespace roadfusion::vision
