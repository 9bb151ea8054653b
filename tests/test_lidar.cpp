#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "kitti/lidar.hpp"

namespace roadfusion::kitti {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;
using vision::Camera;

Camera test_camera() { return Camera(96, 32, 90.0, 1.6, 0.12); }

TEST(Lidar, ScanProducesPoints) {
  const Scene scene = Scene::generate(RoadCategory::kUM, Lighting::kDay, 1);
  Rng rng(1);
  const auto points = scan(scene, LidarConfig{}, rng);
  EXPECT_GT(points.size(), 500u);
}

TEST(Lidar, PointsLieNearSurfaces) {
  const Scene scene = Scene::generate(RoadCategory::kUM, Lighting::kDay, 2);
  LidarConfig config;
  config.range_noise_sigma = 0.0;
  config.dropout = 0.0;
  Rng rng(2);
  for (const LidarPoint& point : scan(scene, config, rng)) {
    // Every noiseless return is on the ground plane (y ~ 0) or on an
    // obstacle (0 <= y <= obstacle height <= 5).
    EXPECT_GE(point.y, -1e-6);
    EXPECT_LE(point.y, 5.0 + 1e-6);
    EXPECT_GT(point.z, 0.0);
    EXPECT_LE(point.range, config.max_range + 1e-6);
  }
}

TEST(Lidar, DropoutReducesReturns) {
  const Scene scene = Scene::generate(RoadCategory::kUM, Lighting::kDay, 3);
  LidarConfig low;
  low.dropout = 0.0;
  LidarConfig high;
  high.dropout = 0.5;
  Rng rng1(3);
  Rng rng2(3);
  const auto full = scan(scene, low, rng1);
  const auto sparse = scan(scene, high, rng2);
  EXPECT_LT(sparse.size(), full.size() * 0.7);
}

TEST(Lidar, LightingDoesNotAffectGeometry) {
  // LiDAR is active sensing: identical geometry regardless of lighting.
  const Scene day = Scene::generate(RoadCategory::kUM, Lighting::kDay, 4);
  const Scene night = Scene::generate(RoadCategory::kUM, Lighting::kNight, 4);
  LidarConfig config;
  config.range_noise_sigma = 0.0;
  config.dropout = 0.0;
  Rng rng1(5);
  Rng rng2(5);
  const auto a = scan(day, config, rng1);
  const auto b = scan(night, config, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].range, b[i].range, 1e-12);
  }
}

TEST(Lidar, ProjectionKeepsNearestReturn) {
  std::vector<LidarPoint> points;
  // Two points projecting to (roughly) the same pixel, different ranges.
  points.push_back({0.0, 0.5, 10.0, 10.0});
  points.push_back({0.0, 0.5, 10.0, 10.0});
  points[1].range = 5.0;
  points[1].z = 10.0;
  const Tensor depth = project_to_sparse_depth(points, test_camera());
  float nonzero = 0.0f;
  for (int64_t i = 0; i < depth.numel(); ++i) {
    if (depth.at(i) != 0.0f) {
      nonzero = depth.at(i);
    }
  }
  EXPECT_FLOAT_EQ(nonzero, 5.0f);
}

TEST(Lidar, SparseDepthShapeAndSparsity) {
  const Scene scene = Scene::generate(RoadCategory::kUMM, Lighting::kDay, 6);
  Rng rng(7);
  const auto points = scan(scene, LidarConfig{}, rng);
  const Tensor depth = project_to_sparse_depth(points, test_camera());
  EXPECT_EQ(depth.shape(), Shape::chw(1, 32, 96));
  int64_t filled = 0;
  for (int64_t i = 0; i < depth.numel(); ++i) {
    filled += depth.at(i) != 0.0f ? 1 : 0;
  }
  EXPECT_GT(filled, 100);
  EXPECT_LT(filled, depth.numel());  // genuinely sparse
}

// The sparse image's bits for points that hit every branch of the
// projection: non-finite coordinates (dropped), points behind the
// camera, negative and out-of-range pixels, and points on or next to
// pixel edges (x = 0 lands exactly on the principal column, rays through
// integer pixel corners land on either side of them).
TEST(Lidar, ProjectionBitsPinned) {
  const Camera camera = test_camera();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<LidarPoint> points = {
      {nan, 0.5, 10.0, 3.0},  {0.0, nan, 10.0, 3.0},  {0.0, 0.5, nan, 3.0},
      {inf, 0.5, 10.0, 3.0},  {-inf, 0.5, 10.0, 3.0}, {0.0, inf, 10.0, 3.0},
      {0.0, -inf, 10.0, 3.0}, {0.0, 0.5, inf, 3.0},   {0.0, 0.5, -inf, 3.0},
      {1e300, 0.5, 1e-300, 3.0}, {0.0, 0.5, -4.0, 3.0},
      {0.0, 0.5, 10.0, 11.0}, {0.0, 1.6, 10.0, 12.0}, {-40.0, 0.5, 10.0, 13.0},
      {40.0, 0.5, 10.0, 14.0}, {0.0, 30.0, 10.0, 15.0}, {0.0, -30.0, 10.0, 16.0}};
  // Non-finite pixels alone leave the image empty.
  EXPECT_EQ(project_to_sparse_depth(
                std::vector<LidarPoint>(points.begin(), points.begin() + 9),
                camera)
                .max(),
            0.0f);
  for (int64_t v = -1; v <= camera.height() + 1; ++v) {
    for (int64_t u = -1; u <= camera.width() + 1; u += 3) {
      const vision::Vec3 d = camera.pixel_ray(static_cast<double>(u),
                                              static_cast<double>(v));
      const double t = 2.0 + 0.01 * static_cast<double>(u + v);
      points.push_back({t * d.x, camera.cam_height() + t * d.y, t * d.z,
                        5.0 + 0.1 * static_cast<double>(u)});
    }
  }
  const Tensor depth = project_to_sparse_depth(points, camera);
  // x = 0 projects to u = cx = 48 exactly: column 48 holds that return.
  bool on_edge = false;
  for (int64_t v = 0; v < camera.height(); ++v) {
    on_edge = on_edge || depth.at(v * camera.width() + 48) == 11.0f;
  }
  EXPECT_TRUE(on_edge);
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(depth.raw());
  for (size_t i = 0; i < static_cast<size_t>(depth.numel()) * sizeof(float);
       ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0x4f33205723ce45d2ULL) << std::hex << hash;
}

TEST(Lidar, InvalidConfigsRejected) {
  const Scene scene = Scene::generate(RoadCategory::kUM, Lighting::kDay, 8);
  Rng rng(8);
  LidarConfig bad;
  bad.beams = 0;
  EXPECT_THROW(scan(scene, bad, rng), Error);
  LidarConfig bad2;
  bad2.elevation_min_deg = 5.0;
  bad2.elevation_max_deg = -5.0;
  EXPECT_THROW(scan(scene, bad2, rng), Error);
}

}  // namespace
}  // namespace roadfusion::kitti
