// End-to-end int8 accuracy gate (DESIGN.md §13): calibrate over the
// seeded synthetic validation split, serve int8 with the derived scale
// table, and require the MaxF / IOU deltas vs the fp32 golden pass to
// stay within the hard threshold. The negative half feeds the gate a
// deliberately mis-scaled table and requires it to FAIL — proving the
// gate actually detects quantization defects rather than vacuously
// passing.
//
// The gate only discriminates on a net whose MaxF sits above the
// trivial all-positive classifier (an untrained net's threshold sweep
// degenerates to that point, where NO perturbation can move the score —
// see the AP note in test_integration.cpp). So the suite briefly trains
// one shared net to ~66 MaxF, a few points clear of the ~61.8 floor,
// which is exactly the margin the mis-scale test needs to breach the
// 2.0-point gate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/quant_gate.hpp"
#include "kitti/dataset.hpp"
#include "obs/metrics.hpp"
#include "quant/runtime.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/rng.hpp"
#include "train/trainer.hpp"
#include "tune/dispatch.hpp"

namespace roadfusion::eval {
namespace {

using roadseg::RoadSegConfig;
using roadseg::RoadSegNet;
using tensor::Rng;

/// Restores solver + quant state on scope exit.
class GateGuard {
 public:
  ~GateGuard() {
    tune::force_solver("");
    quant::set_enabled(false);
    quant::set_calibrating(false);
    quant::clear_scale_table();
    quant::clear_calibration();
  }
};

kitti::RoadDataset small_split() {
  kitti::DatasetConfig config;
  config.max_per_category = 4;
  return kitti::RoadDataset(config, kitti::Split::kTest);
}

RoadSegConfig gate_net_config() {
  RoadSegConfig config;
  config.scheme = core::FusionScheme::kWeightedSharing;
  config.stage_channels = {6, 8, 12, 16, 20};
  return config;
}

/// One shared net, trained once (~2 s) to lift MaxF clear of the
/// all-positive floor. Read-only after construction; every test drives
/// it through run_quant_gate, which restores quant state itself.
RoadSegNet& trained_net() {
  static RoadSegNet* net = [] {
    kitti::DatasetConfig data;
    data.max_per_category = 10;
    const kitti::RoadDataset train_split(data, kitti::Split::kTrain);
    Rng rng(1);
    auto* fresh = new RoadSegNet(gate_net_config(), rng);
    train::TrainConfig config;
    config.epochs = 6;
    train::fit(*fresh, train_split, config);
    fresh->set_training(false);
    fresh->prepare_inference();
    return fresh;
  }();
  return *net;
}

TEST(QuantGate, CalibratedInt8StaysWithinAccuracyThreshold) {
  GateGuard guard;
  const kitti::RoadDataset split = small_split();
  RoadSegNet& net = trained_net();

  const QuantGateConfig config;  // default 2.0-point MaxF / IOU gates
  const QuantGateResult result = run_quant_gate(net, split, config);

  EXPECT_GT(result.table.size(), 0u)
      << "calibration must observe every encoder conv shape";
  // The trained net must sit above the ~61.8 trivial-classifier floor,
  // or the negative control below is meaningless.
  EXPECT_GT(result.fp32.f_score, 64.0);
  EXPECT_LE(result.f_delta, config.max_f_delta)
      << "fp32 MaxF " << result.fp32.f_score << " vs int8 "
      << result.int8.f_score;
  EXPECT_LE(result.iou_delta, config.max_iou_delta)
      << "fp32 IOU " << result.fp32.iou << " vs int8 " << result.int8.iou;
  EXPECT_TRUE(result.passed);

  // The gate driver must leave the process in the fp32 default state.
  EXPECT_FALSE(quant::enabled());
  EXPECT_EQ(quant::scale_table_size(), 0u);

  // Every calibrated record carries a usable (finite, non-negative) scale.
  for (const auto& [key, scale] : result.table.records()) {
    EXPECT_GE(scale, 0.0f) << key;
  }
}

// Negative control: a table whose scales are inflated 64x crushes most
// activations into the two or three lowest quantization levels, which
// must push the int8 scores far outside the gate. If this test ever
// starts passing the gate, the gate is no longer measuring anything.
TEST(QuantGate, MisScaledTableFailsTheGate) {
  GateGuard guard;
  const kitti::RoadDataset split = small_split();
  RoadSegNet& net = trained_net();

  // Calibrate honestly first to learn the real keys, then corrupt.
  const QuantGateResult honest = run_quant_gate(net, split, {});
  ASSERT_TRUE(honest.passed);
  quant::ScaleTable corrupted;
  for (const auto& [key, scale] : honest.table.records()) {
    corrupted.set(key, scale > 0.0f ? scale * 64.0f : 1.0f);
  }

  const QuantGateResult result =
      run_quant_gate(net, split, {}, &corrupted);
  EXPECT_FALSE(result.passed)
      << "mis-scaled table escaped the gate: MaxF delta " << result.f_delta
      << ", IOU delta " << result.iou_delta;
  EXPECT_GT(result.f_delta + result.iou_delta, 2.0);
}

// The int8 solvers serve bit-identical results (shared quantized operands,
// exact int32 accumulation), so with one shared scale table the gate
// verdict must not depend on whether the heuristic bindings or the forced
// reference solver serve the fp32 convs around them.
TEST(QuantGate, VerdictIsSolverIndependent) {
  GateGuard guard;
  const kitti::RoadDataset split = small_split();
  RoadSegNet& net = trained_net();

  const QuantGateResult calibrated = run_quant_gate(net, split, {});
  ASSERT_TRUE(calibrated.passed);

  std::vector<QuantGateResult> results;
  for (const char* solver : {"", "reference"}) {
    tune::force_solver(solver);
    results.push_back(run_quant_gate(net, split, {}, &calibrated.table));
  }
  for (const QuantGateResult& result : results) {
    EXPECT_TRUE(result.passed);
  }
  EXPECT_DOUBLE_EQ(results[0].int8.f_score, results[1].int8.f_score);
  EXPECT_DOUBLE_EQ(results[0].int8.iou, results[1].int8.iou);
}

}  // namespace
}  // namespace roadfusion::eval
