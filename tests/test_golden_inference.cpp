// Golden end-to-end regression: RoadSegNet::predict on a fixed-seed
// network and scene must produce a thresholded road mask that matches a
// checked-in checksum, under the default solver bindings and under every
// forced solver (the scalar reference oracle included). The probability
// maps themselves may differ in the last float bits between solvers
// (different accumulation orders), but the >= 0.5 decision mask is far
// from any threshold crossing at these seeds, so it is bit-stable — any
// change to conv semantics, the encoder topology, or the RNG stream trips
// this test.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "core/fusion_scheme.hpp"
#include "plan/plan.hpp"
#include "quant/runtime.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/tensor.hpp"
#include "tune/dispatch.hpp"
#include "tune/solver.hpp"

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

std::vector<uint8_t> predict_mask_scheme(core::FusionScheme scheme,
                                         bool int8_mode) {
  if (int8_mode) {
    // Empty scale table: every conv quantizes activations dynamically
    // from its own absmax — fully deterministic, no calibration input.
    quant::clear_scale_table();
    quant::set_enabled(true);
  }
  Rng rng(2022);
  RoadSegConfig config;
  config.scheme = scheme;
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
  if (int8_mode) {
    quant::set_enabled(false);
  }
  return mask;
}

std::vector<uint8_t> predict_mask() {
  RoadSegConfig defaults;
  return predict_mask_scheme(defaults.scheme, /*int8_mode=*/false);
}

TEST(GoldenInference, MaskMatchesCheckedInChecksum) {
  const uint64_t hash = fnv1a(predict_mask());
  EXPECT_EQ(hash, kGoldenMaskHash)
      << "mask hash changed: 0x" << std::hex << hash
      << " — if the architecture or RNG stream changed intentionally, "
         "update kGoldenMaskHash";
}

TEST(GoldenInference, MaskBitStableUnderEveryRegisteredSolver) {
  // Forcing each fp32 solver globally (the ROADFUSION_SOLVER code path)
  // must leave the golden mask untouched — the guarantee that lets a perf
  // DB re-bind kernels per shape without changing served results. Solvers
  // that are inapplicable to some layer shape fall back per problem, which
  // is exactly what production dispatch does.
  for (const std::string& name : tune::solver_names()) {
    SCOPED_TRACE(name);
    tune::force_solver(name);
    const std::vector<uint8_t> mask = predict_mask();
    tune::force_solver("");
    EXPECT_EQ(fnv1a(mask), kGoldenMaskHash)
        << "solver '" << name << "' changes the golden mask";
  }
}

// Second golden family (DESIGN.md §13): the int8 inference path with
// dynamic activation scales is fully deterministic — quantization uses
// round-to-nearest-even off each call's exact absmax — so its thresholded
// mask is pinned per fusion scheme, exactly like the fp32 hash above. A
// quantization-semantics change (scale math, rounding, epilogue order)
// trips this without touching the fp32 golden.
struct SchemeGolden {
  core::FusionScheme scheme;
  const char* name;
  uint64_t hash;
};

constexpr SchemeGolden kInt8GoldenMasks[] = {
    {core::FusionScheme::kBaseline, "baseline", 0xde1a68dd1bd7e0b8ull},
    {core::FusionScheme::kAllFilterU, "all_filter_u", 0x1fa357729af8e242ull},
    {core::FusionScheme::kAllFilterB, "all_filter_b", 0x32bdfeae410b80a5ull},
    {core::FusionScheme::kBaseSharing, "base_sharing", 0xefb78354e7fbe352ull},
    {core::FusionScheme::kWeightedSharing, "weighted_sharing",
     0xe8bd49d61328a6d9ull},
};

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

TEST(GoldenInference, Int8MaskBitStableUnderForcedInt8Solvers) {
  // Every int8 GEMM accumulates in exact int32 with shared rounding, so
  // forcing any one (the int8_reference oracle included) must reproduce the
  // per-scheme int8 golden hashes. int8_avx2 only exists as an applicable
  // choice on AVX2 hosts.
  std::vector<std::string> solvers = {"int8_reference", "int8_blocked"};
  if (common::active_tier() >= common::CpuTier::kAvx2) {
    solvers.push_back("int8_avx2");
  }
  for (const std::string& name : solvers) {
    for (const SchemeGolden& golden : kInt8GoldenMasks) {
      SCOPED_TRACE(name + "/" + golden.name);
      tune::force_solver(name);
      const std::vector<uint8_t> mask =
          predict_mask_scheme(golden.scheme, /*int8_mode=*/true);
      tune::force_solver("");
      EXPECT_EQ(fnv1a(mask), golden.hash)
          << "solver '" << name << "' changes the int8 golden mask";
    }
  }
}

TEST(GoldenInference, Int8MaskMatchesCheckedInChecksumPerScheme) {
  for (const SchemeGolden& golden : kInt8GoldenMasks) {
    SCOPED_TRACE(golden.name);
    const uint64_t hash =
        fnv1a(predict_mask_scheme(golden.scheme, /*int8_mode=*/true));
    EXPECT_EQ(hash, golden.hash)
        << "int8 mask hash for scheme '" << golden.name << "' changed: 0x"
        << std::hex << hash
        << " — if quantization semantics changed intentionally, update "
           "kInt8GoldenMasks";
  }
}

TEST(GoldenInference, Int8MaskDiffersFromFp32Golden) {
  // The int8 path must actually quantize: if its mask hash ever collapses
  // onto the fp32 golden for the default scheme AND every conv reports
  // fp32 semantics, the quantized solvers silently stopped binding.
  RoadSegConfig defaults;
  const std::vector<uint8_t> int8_mask =
      predict_mask_scheme(defaults.scheme, /*int8_mode=*/true);
  // Same shape as the fp32 mask, still a nontrivial road segmentation.
  size_t road = 0;
  for (const uint8_t bit : int8_mask) {
    road += bit;
  }
  EXPECT_GT(road, 0u);
  EXPECT_LT(road, int8_mask.size());
}

TEST(GoldenInference, MaskIsNontrivial) {
  // Guards the golden hash against degenerate all-road / no-road masks,
  // which would make the solver comparison vacuous.
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
