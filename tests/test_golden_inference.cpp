// Golden end-to-end regression: RoadSegNet::predict on a fixed-seed
// network and scene must produce a thresholded road mask that matches a
// checked-in checksum, whether the compiled plan or the autograd graph
// serves it. The >= 0.5 decision mask is far from any threshold crossing
// at these seeds, so it is bit-stable — any change to conv semantics, the
// encoder topology, or the RNG stream trips this test.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/tensor.hpp"

namespace roadfusion::roadseg {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

// FNV-1a over the mask bytes: stable, dependency-free, order-sensitive.
uint64_t fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

// To regenerate after an intentional architecture / RNG-stream change:
// run this test and copy the hash printed in the failure message.
constexpr uint64_t kGoldenMaskHash = 0x680d27ae7ceb1800ull;

std::vector<uint8_t> predict_mask() {
  Rng rng(2022);
  RoadSegConfig config;
  config.stage_channels = {6, 8, 10, 12, 16};
  RoadSegNet net(config, rng);
  net.set_training(false);
  Rng scene_rng(7);
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 32, 48), scene_rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 32, 48), scene_rng);
  const Tensor probability = net.predict(rgb, depth);
  std::vector<uint8_t> mask;
  mask.reserve(static_cast<size_t>(probability.numel()));
  for (int64_t i = 0; i < probability.numel(); ++i) {
    mask.push_back(probability.at(i) >= 0.5f ? 1 : 0);
  }
  return mask;
}

TEST(GoldenInference, MaskMatchesCheckedInChecksum) {
  const uint64_t hash = fnv1a(predict_mask());
  EXPECT_EQ(hash, kGoldenMaskHash)
      << "mask hash changed: 0x" << std::hex << hash
      << " — if the architecture or RNG stream changed intentionally, "
         "update kGoldenMaskHash";
}

TEST(GoldenInference, MaskBitStableUnderCompiledPlan) {
  // The inference plan compiler (DESIGN.md §16) must serve the exact
  // golden mask: its blocked-layout schedule is bit-identical to the
  // autograd graph, so the pinned hash holds with the plan active too.
  plan::install_hooks();
  Rng rng(2022);
  RoadSegConfig config;
  config.stage_channels = {6, 8, 10, 12, 16};
  RoadSegNet net(config, rng);
  net.set_training(false);
  net.prepare_inference();
  Rng scene_rng(7);
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 32, 48), scene_rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 32, 48), scene_rng);
  const Tensor probability = net.predict(rgb, depth);
  std::vector<uint8_t> mask;
  for (int64_t i = 0; i < probability.numel(); ++i) {
    mask.push_back(probability.at(i) >= 0.5f ? 1 : 0);
  }
  EXPECT_EQ(fnv1a(mask), kGoldenMaskHash)
      << "the compiled plan changes the golden mask";
}

TEST(GoldenInference, MaskIsNontrivial) {
  // Guards the golden hash against degenerate all-road / no-road masks,
  // which would make the comparison vacuous.
  const std::vector<uint8_t> mask = predict_mask();
  size_t road = 0;
  for (const uint8_t bit : mask) {
    road += bit;
  }
  EXPECT_GT(road, 0u);
  EXPECT_LT(road, mask.size());
}

}  // namespace
}  // namespace roadfusion::roadseg
