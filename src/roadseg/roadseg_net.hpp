// RoadSegNet: the full two-branch middle-fusion segmentation network,
// configurable with any of the paper's five fusion schemes.
//
// Data flow per fusion stage i (Fig. 2 / Fig. 5):
//   r_i = RgbEncoder.stage_i(previous fused features)
//   d_i = DepthEncoder.stage_i(previous depth features)
//   matched_i = scheme-dependent transformation of d_i
//   fused_i   = r_i + matched_i            (element-wise summation)
//   (AllFilter_B additionally updates the depth branch with a matched
//    copy of r_i.)
// The decoder consumes the fused pyramid through skip connections.
//
// The (r_i, matched_i) pairs are surfaced so the Feature Disparity can be
// measured (Fig. 3a) and penalized during training (Eq. 3).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/awn.hpp"
#include "core/fusion_filter.hpp"
#include "core/fusion_scheme.hpp"
#include "roadseg/decoder.hpp"
#include "roadseg/encoder.hpp"
#include "roadseg/segmentation_model.hpp"

namespace roadfusion::roadseg {

using core::FusionScheme;

/// Network hyper-parameters.
struct RoadSegConfig {
  FusionScheme scheme = FusionScheme::kBaseline;
  std::vector<int64_t> stage_channels = {8, 12, 16, 24, 32};
  int64_t rgb_channels = 3;
  int64_t depth_channels = 1;
  /// Index of the first shared stage for the sharing schemes (the paper
  /// shares the last convolutional stage; -1 selects exactly that).
  int share_from_stage = -1;
};

/// The complete middle-fusion segmentation network.
class RoadSegNet : public SegmentationModel {
 public:
  RoadSegNet(const RoadSegConfig& config, Rng& rng);

  /// Forward pass. rgb: (N, 3, H, W); depth: (N, C_d, H, W). H and W must
  /// be divisible by 2^(num_stages - 1).
  ForwardResult forward(const autograd::Variable& rgb,
                        const autograd::Variable& depth) const override;

  /// Scales the matched depth features by `fusion_weight` at every fusion
  /// point (fused_i = r_i + w * matched_i), the serving-time analogue of
  /// the AWN scalar weight. w = 1 is bit-identical to `forward`; w = 0
  /// skips the depth encoder entirely and never reads the depth values
  /// (the RGB-only degraded mode — safe for NaN-poisoned depth).
  ForwardResult forward_fused(const autograd::Variable& rgb,
                              const autograd::Variable& depth,
                              float fusion_weight) const override;

  /// MAC / parameter budget for the given input size. Parameters are
  /// deduplicated (shared stages count once); MACs count actual execution
  /// (a shared stage still runs twice).
  nn::Complexity complexity(int64_t height, int64_t width) const override;

  /// The base contract plus spatial extents divisible by the network
  /// stride — shared by the graph, the plan and the engine's submit.
  void check_inputs(const tensor::Shape& rgb, const tensor::Shape& depth,
                    float fusion_weight) const override;

  /// The compiled inference plan (DESIGN.md §16): built through the plan
  /// hooks in eval mode and rebuilt when the inference epoch moves on
  /// (checkpoint loads, optimizer steps). Null in training mode or with
  /// no plan library linked.
  std::shared_ptr<void> inference_plan() const override;

  const RoadSegConfig& config() const { return config_; }
  int num_stages() const { return rgb_encoder_->num_stages(); }

  /// Structural accessors for the inference plan compiler (DESIGN.md §16).
  const Encoder& rgb_encoder() const { return *rgb_encoder_; }
  const Encoder& depth_encoder() const { return *depth_encoder_; }
  const std::vector<core::FusionFilter>& depth_to_rgb_filters() const {
    return depth_to_rgb_filters_;
  }
  const std::vector<core::FusionFilter>& rgb_to_depth_filters() const {
    return rgb_to_depth_filters_;
  }
  const core::AuxiliaryWeightNetwork* awn() const { return awn_.get(); }
  const Decoder& decoder() const { return *decoder_; }

  /// True when stage `stage` of the two encoders shares parameters.
  bool stage_is_shared(int stage) const;

  void collect_parameters(std::vector<nn::ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<nn::StateEntry>& out) override;
  void set_training(bool training) override;

 private:
  int resolved_share_from() const;

  RoadSegConfig config_;
  bool training_ = true;
  /// The compiled inference plan and the inference epoch it was built
  /// at; swapped atomically, so concurrent rebuilds are benign.
  struct PlanBinding {
    uint64_t epoch = 0;
    std::shared_ptr<void> state;
  };
  mutable std::shared_ptr<const PlanBinding> plan_;
  std::unique_ptr<Encoder> rgb_encoder_;
  std::unique_ptr<Encoder> depth_encoder_;
  std::vector<core::FusionFilter> depth_to_rgb_filters_;  // AU / AB
  std::vector<core::FusionFilter> rgb_to_depth_filters_;  // AB only
  std::unique_ptr<core::AuxiliaryWeightNetwork> awn_;     // WS only
  std::unique_ptr<Decoder> decoder_;
};

}  // namespace roadfusion::roadseg
