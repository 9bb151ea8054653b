#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "kitti/depth_preproc.hpp"
#include "kitti/lidar.hpp"
#include "vision/filters.hpp"

namespace roadfusion::kitti {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor sparse_grid(int64_t h, int64_t w, int64_t stride, float range) {
  Tensor t(Shape::chw(1, h, w));
  for (int64_t y = 0; y < h; y += stride) {
    for (int64_t x = 0; x < w; x += stride) {
      t.at(y * w + x) = range;
    }
  }
  return t;
}

/// FNV-1a (64-bit) over the raw bytes of `t`, continuing from `hash`.
uint64_t fnv1a(uint64_t hash, const Tensor& t) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.raw());
  const size_t size = static_cast<size_t>(t.numel()) * sizeof(float);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// A projected LiDAR scan of a generated scene, as the dataset makes them.
Tensor lidar_scan(RoadCategory category, int64_t h, int64_t w, uint64_t seed) {
  const Scene scene = Scene::generate(category, Lighting::kDay, seed);
  Rng rng(seed);
  return project_to_sparse_depth(scan(scene, LidarConfig{}, rng),
                                 vision::Camera(w, h, 90.0, 1.6, 0.12));
}

/// A sparse range plane: mostly empty (+0.0, some -0.0), the rest valid
/// ranges; with `specials`, also negative values, denormal-adjacent
/// 1e-30, NaN and +-inf.
Tensor random_plane(int64_t h, int64_t w, Rng& rng, bool specials) {
  Tensor t(Shape::chw(1, h, w));
  for (int64_t i = 0; i < t.numel(); ++i) {
    const double u = rng.uniform();
    float v = static_cast<float>(rng.uniform(0.5, 80.0));
    if (u < 0.55) {
      v = 0.0f;
    } else if (u < 0.6) {
      v = -0.0f;
    } else if (specials && u < 0.63) {
      v = -v;
    } else if (specials && u < 0.635) {
      v = std::numeric_limits<float>::quiet_NaN();
    } else if (specials && u < 0.64) {
      v = std::numeric_limits<float>::infinity();
    } else if (specials && u < 0.645) {
      v = -std::numeric_limits<float>::infinity();
    } else if (specials && u < 0.66) {
      v = 1e-30f;
    }
    t.at(i) = v;
  }
  return t;
}

/// Folds every output of the depth front end on `sparse` into `hash`.
uint64_t hash_front_end(uint64_t hash, const Tensor& sparse,
                        const DepthPreprocConfig& config) {
  hash = fnv1a(hash, preprocess_depth(sparse, config));
  const Tensor dense = densify_range(sparse, config);
  hash = fnv1a(hash, dense);
  const Tensor inverse = range_to_inverse_depth(dense, config);
  hash = fnv1a(hash, inverse);
  hash = fnv1a(hash, range_to_inverse_depth(sparse, config));
  if (config.smoothing_sigma > 0.0) {
    hash = fnv1a(hash, vision::gaussian_blur(inverse, config.smoothing_sigma));
    hash = fnv1a(hash, vision::gaussian_blur(sparse, config.smoothing_sigma));
  }
  return hash;
}

/// The corpus the checked-in hash covers: the three categories' scans at
/// two sizes, the empty scan, 1x1 / 1xN / Nx1 and small random planes
/// (with -0.0, negatives, 1e-30, NaN, +-inf), fill_iterations 1..8 and
/// sigma 0.6 / 1.5 (plus the default config and no smoothing).
uint64_t corpus_hash() {
  std::vector<Tensor> planes;
  const RoadCategory categories[] = {RoadCategory::kUM, RoadCategory::kUMM,
                                     RoadCategory::kUU};
  uint64_t seed = 11;
  for (const RoadCategory category : categories) {
    planes.push_back(lidar_scan(category, 32, 96, seed++));
    planes.push_back(lidar_scan(category, 64, 192, seed++));
  }
  planes.push_back(Tensor(Shape::chw(1, 32, 96)));
  Rng rng(2022);
  for (const bool specials : {false, true}) {
    planes.push_back(random_plane(1, 1, rng, specials));
    planes.push_back(random_plane(1, 37, rng, specials));
    planes.push_back(random_plane(29, 1, rng, specials));
    planes.push_back(random_plane(2, 3, rng, specials));
    planes.push_back(random_plane(13, 21, rng, specials));
    planes.push_back(random_plane(21, 41, rng, specials));
  }
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Tensor& plane : planes) {
    hash = hash_front_end(hash, plane, DepthPreprocConfig{});
    for (int iterations = 1; iterations <= 8; ++iterations) {
      for (const double sigma : {0.0, 0.6, 1.5}) {
        DepthPreprocConfig config;
        config.fill_iterations = iterations;
        config.smoothing_sigma = sigma;
        hash = hash_front_end(hash, plane, config);
      }
    }
  }
  // gaussian_blur's other callers (edges, SSIM) pass multi-plane stacks.
  Rng stack_rng(7);
  hash = fnv1a(hash, vision::gaussian_blur(
                         Tensor::uniform(Shape::nchw(2, 3, 5, 7), stack_rng),
                         0.6));
  hash = fnv1a(hash, vision::gaussian_blur(
                         Tensor::uniform(Shape::mat(9, 4), stack_rng), 1.5));
  return hash;
}

TEST(DepthPreproc, DensifyFillsGaps) {
  const Tensor sparse = sparse_grid(8, 16, 3, 12.0f);
  const Tensor dense = densify_range(sparse);
  int64_t holes = 0;
  for (int64_t i = 0; i < dense.numel(); ++i) {
    holes += dense.at(i) == 0.0f ? 1 : 0;
  }
  EXPECT_EQ(holes, 0);
}

TEST(DepthPreproc, DensifyPreservesConstantRanges) {
  const Tensor sparse = sparse_grid(8, 16, 2, 20.0f);
  const Tensor dense = densify_range(sparse);
  for (int64_t i = 0; i < dense.numel(); ++i) {
    EXPECT_NEAR(dense.at(i), 20.0f, 1e-4f);
  }
}

TEST(DepthPreproc, DensifyKeepsOriginalReturnsExact) {
  Tensor sparse(Shape::chw(1, 4, 4));
  sparse.at(5) = 7.5f;
  const Tensor dense = densify_range(sparse);
  EXPECT_FLOAT_EQ(dense.at(5), 7.5f);
}

TEST(DepthPreproc, FewIterationsMayLeaveHoles) {
  DepthPreprocConfig config;
  config.fill_iterations = 1;
  Tensor sparse(Shape::chw(1, 12, 12));
  sparse.at(0) = 5.0f;  // single far-corner return
  const Tensor dense = densify_range(sparse, config);
  EXPECT_FLOAT_EQ(dense.at(11 * 12 + 11), 0.0f);
}

TEST(DepthPreproc, InverseDepthMapping) {
  DepthPreprocConfig config;
  config.min_range = 1.0;
  config.max_range = 60.0;
  Tensor range(Shape::chw(1, 1, 3));
  range.at(0) = 1.0f;   // nearest -> 1
  range.at(1) = 60.0f;  // farthest -> 0
  range.at(2) = 0.0f;   // empty -> 0
  const Tensor inverse = range_to_inverse_depth(range, config);
  EXPECT_NEAR(inverse.at(0), 1.0f, 1e-6f);
  EXPECT_NEAR(inverse.at(1), 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(inverse.at(2), 0.0f);
}

TEST(DepthPreproc, InverseDepthMonotonicallyDecreasesWithRange) {
  Tensor range(Shape::chw(1, 1, 4));
  range.at(0) = 2.0f;
  range.at(1) = 5.0f;
  range.at(2) = 15.0f;
  range.at(3) = 40.0f;
  const Tensor inverse = range_to_inverse_depth(range);
  EXPECT_GT(inverse.at(0), inverse.at(1));
  EXPECT_GT(inverse.at(1), inverse.at(2));
  EXPECT_GT(inverse.at(2), inverse.at(3));
}

TEST(DepthPreproc, RangesOutsideBoundsClamped) {
  Tensor range(Shape::chw(1, 1, 2));
  range.at(0) = 0.2f;    // below min
  range.at(1) = 500.0f;  // beyond max
  const Tensor inverse = range_to_inverse_depth(range);
  EXPECT_NEAR(inverse.at(0), 1.0f, 1e-6f);
  EXPECT_NEAR(inverse.at(1), 0.0f, 1e-6f);
}

TEST(DepthPreproc, FullPipelineOutputInUnitRange) {
  const Tensor sparse = sparse_grid(16, 24, 4, 8.0f);
  const Tensor processed = preprocess_depth(sparse);
  EXPECT_EQ(processed.shape(), sparse.shape());
  EXPECT_GE(processed.min(), 0.0f);
  EXPECT_LE(processed.max(), 1.0f);

  // The tiled entry point only forwards, whatever the previous scan.
  const Tensor previous = sparse_grid(16, 24, 3, 20.0f);
  TiledPreprocStats stats;
  EXPECT_TRUE(same_bits(preprocess_depth_tiled(sparse, previous,
                                               preprocess_depth(previous),
                                               DepthPreprocConfig{}, &stats),
                        processed));
  EXPECT_EQ(stats.tiles_total, 1);
  EXPECT_EQ(stats.tiles_reused, 0);
}

TEST(DepthPreproc, RejectsBadShapesAndBounds) {
  EXPECT_THROW(densify_range(Tensor(Shape::mat(4, 4))), Error);
  DepthPreprocConfig bad;
  bad.min_range = 10.0;
  bad.max_range = 5.0;
  EXPECT_THROW(range_to_inverse_depth(Tensor(Shape::chw(1, 2, 2)), bad),
               Error);
}

// Every output of the depth front end, bit for bit, on a seeded corpus:
// the hash was taken from the straightforward reference implementation
// (per-tap bounds checks, Tensor-copying fill passes, clamped blur taps)
// and pins the fast pipeline to it.
TEST(DepthPreproc, BitsMatchCheckedInHash) {
  constexpr uint64_t kExpected = 0xe0e1c6b29b08f0f6ULL;
  EXPECT_EQ(corpus_hash(), kExpected) << std::hex << corpus_hash();
}

}  // namespace
}  // namespace roadfusion::kitti
