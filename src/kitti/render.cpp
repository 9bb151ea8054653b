#include "kitti/render.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace roadfusion::kitti {
namespace {

using vision::Vec3;

/// Ray / axis-aligned box intersection; the box stands on the ground:
/// x in [cx +- hw], z in [cz +- hd], y in [0, height].
bool intersect_box(const Obstacle& box, const Vec3& origin, const Vec3& dir,
                   double max_range, double& t_hit) {
  double t_near = 0.0;
  double t_far = max_range;
  const double box_min[3] = {box.x - box.half_width, 0.0,
                             box.z - box.half_depth};
  const double box_max[3] = {box.x + box.half_width, box.height,
                             box.z + box.half_depth};
  const double o[3] = {origin.x, origin.y, origin.z};
  const double d[3] = {dir.x, dir.y, dir.z};
  for (int axis = 0; axis < 3; ++axis) {
    if (std::fabs(d[axis]) < 1e-12) {
      if (o[axis] < box_min[axis] || o[axis] > box_max[axis]) {
        return false;
      }
      continue;
    }
    double t0 = (box_min[axis] - o[axis]) / d[axis];
    double t1 = (box_max[axis] - o[axis]) / d[axis];
    if (t0 > t1) {
      std::swap(t0, t1);
    }
    t_near = std::max(t_near, t0);
    t_far = std::min(t_far, t1);
    if (t_near > t_far) {
      return false;
    }
  }
  if (t_near <= 1e-9 || t_near >= max_range) {
    return false;
  }
  t_hit = t_near;
  return true;
}

float clamp01(float v) { return std::clamp(v, 0.0f, 1.0f); }

}  // namespace

RayHit cast_ray(const Scene& scene, const Vec3& origin, const Vec3& direction,
                double max_range) {
  RayHit hit;
  double best_t = max_range;

  // Ground plane y = 0.
  if (direction.y < -1e-9) {
    const double t = origin.y / -direction.y;
    if (t > 1e-9 && t < best_t) {
      const double gx = origin.x + t * direction.x;
      const double gz = origin.z + t * direction.z;
      if (gz > 0.0) {
        best_t = t;
        hit.surface = RayHit::Surface::kGround;
        hit.range = t;
        hit.ground_x = gx;
        hit.ground_z = gz;
        hit.hit_height = 0.0;
      }
    }
  }

  for (const Obstacle& obstacle : scene.obstacles()) {
    double t = 0.0;
    if (intersect_box(obstacle, origin, direction, best_t, t)) {
      best_t = t;
      hit.surface = RayHit::Surface::kObstacle;
      hit.range = t;
      hit.obstacle = &obstacle;
      hit.ground_x = origin.x + t * direction.x;
      hit.ground_z = origin.z + t * direction.z;
      hit.hit_height = origin.y + t * direction.y;
    }
  }
  return hit;
}

Tensor render_rgb(const Scene& scene, const Camera& camera, Rng& rng) {
  const int64_t h = camera.height();
  const int64_t w = camera.width();
  Tensor rgb(tensor::Shape::chw(3, h, w));
  float* data = rgb.raw();
  const int64_t plane = h * w;
  const Vec3 origin{0.0, camera.cam_height(), 0.0};

  const Color sky = scene.sky_color();
  const Color road = scene.road_color();
  const Color offroad = scene.offroad_color();

  for (int64_t y = 0; y < h; ++y) {
    for (int64_t x = 0; x < w; ++x) {
      const Vec3 ray = camera.pixel_ray(static_cast<double>(x) + 0.5,
                                        static_cast<double>(y) + 0.5);
      const RayHit hit = cast_ray(scene, origin, ray);
      // Every surface case sets all three.
      float r = 0.0f;
      float g = 0.0f;
      float b = 0.0f;
      switch (hit.surface) {
        case RayHit::Surface::kSky: {
          // Vertical gradient: brighter near the horizon.
          const float t =
              clamp01(static_cast<float>(y) / static_cast<float>(h) * 2.0f);
          r = sky.r * (0.8f + 0.2f * t);
          g = sky.g * (0.8f + 0.2f * t);
          b = sky.b * (0.85f + 0.15f * t);
          break;
        }
        case RayHit::Surface::kObstacle: {
          const Color base = hit.obstacle->color;
          // Cheap vertical shading so boxes read as 3-D.
          const float shade = clamp01(
              0.6f + 0.4f * static_cast<float>(hit.hit_height /
                                               hit.obstacle->height));
          r = base.r * shade;
          g = base.g * shade;
          b = base.b * shade;
          break;
        }
        case RayHit::Surface::kGround: {
          Color base;
          Color marking;
          const bool road_here = scene.on_road(hit.ground_x, hit.ground_z);
          if (road_here && scene.on_marking(hit.ground_x, hit.ground_z,
                                            &marking)) {
            base = marking;
          } else {
            base = road_here ? road : offroad;
          }
          // Procedural surface texture; contrast scaled per category.
          const float noise =
              scene.ground_noise(hit.ground_x, hit.ground_z) * 0.06f *
              scene.texture_contrast();
          const float shadow =
              scene.shadow_factor(hit.ground_x, hit.ground_z);
          r = (base.r + noise) * shadow;
          g = (base.g + noise) * shadow;
          b = (base.b + noise) * shadow;
          break;
        }
      }
      data[y * w + x] = r;
      data[plane + y * w + x] = g;
      data[2 * plane + y * w + x] = b;
    }
  }

  // Lighting post-process on RGB only.
  switch (scene.lighting()) {
    case Lighting::kDay:
      break;
    case Lighting::kNight: {
      // Global dimming + headlight cone (bright near bottom centre) +
      // amplified sensor noise.
      for (int64_t y = 0; y < h; ++y) {
        for (int64_t x = 0; x < w; ++x) {
          const float fx = (static_cast<float>(x) + 0.5f) /
                               static_cast<float>(w) -
                           0.5f;
          const float fy =
              (static_cast<float>(y) + 0.5f) / static_cast<float>(h);
          const float headlight =
              clamp01(1.4f * (fy - 0.45f)) * clamp01(1.0f - 3.0f *
                                                                std::fabs(fx));
          const float gain = 0.18f + 0.55f * headlight;
          for (int64_t c = 0; c < 3; ++c) {
            float& v = data[c * plane + y * w + x];
            v = v * gain;
          }
        }
      }
      break;
    }
    case Lighting::kOverexposure: {
      // Blown-out exposure washes the texture and the markings together.
      for (int64_t i = 0; i < rgb.numel(); ++i) {
        data[i] = clamp01(0.35f + data[i] * 1.9f);
      }
      break;
    }
    case Lighting::kShadows:
      // The shadow blobs were already applied at the surface level.
      break;
  }

  // Sensor noise (stronger at night).
  const float noise_sigma =
      scene.lighting() == Lighting::kNight ? 0.035f : 0.012f;
  for (int64_t i = 0; i < rgb.numel(); ++i) {
    data[i] = clamp01(data[i] +
                      static_cast<float>(rng.normal(0.0, noise_sigma)));
  }
  return rgb;
}

Tensor render_ground_truth(const Scene& scene, const Camera& camera) {
  const int64_t h = camera.height();
  const int64_t w = camera.width();
  Tensor label(tensor::Shape::chw(1, h, w));
  float* data = label.raw();
  const Vec3 origin{0.0, camera.cam_height(), 0.0};
  for (int64_t y = 0; y < h; ++y) {
    for (int64_t x = 0; x < w; ++x) {
      const Vec3 ray = camera.pixel_ray(static_cast<double>(x) + 0.5,
                                        static_cast<double>(y) + 0.5);
      const RayHit hit = cast_ray(scene, origin, ray);
      const bool drivable = hit.surface == RayHit::Surface::kGround &&
                            scene.on_road(hit.ground_x, hit.ground_z);
      data[y * w + x] = drivable ? 1.0f : 0.0f;
    }
  }
  return label;
}

}  // namespace roadfusion::kitti
