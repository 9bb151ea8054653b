// RoadSeg decoder: transposed-conv upsampling with skip connections from
// every fusion stage, ending in a 1-channel road logit map at full input
// resolution.
#pragma once

#include <vector>

#include "nn/blocks.hpp"

namespace roadfusion::roadseg {

using autograd::Variable;
using nn::Complexity;
using nn::Rng;

/// Decoder over the fused feature pyramid.
class Decoder : public nn::Module {
 public:
  /// `stage_channels` must match the encoder's (stage 0 first).
  Decoder(const std::string& name, const std::vector<int64_t>& stage_channels,
          Rng& rng);

  /// `skips`: the fused feature map of every stage (stage 0 first). Returns
  /// road logits of shape (N, 1, H, W) at stage-0 resolution.
  Variable forward(const std::vector<Variable>& skips) const;

  void collect_parameters(std::vector<nn::ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<nn::StateEntry>& out) override;
  void set_training(bool training) override;

  /// Complexity for a stage-0 feature map of the given spatial size.
  Complexity complexity(int64_t full_h, int64_t full_w) const;

  /// Layers by transition, deepest first: up(i) upsamples stage
  /// (stages - 1 - i) onto stage (stages - 2 - i), refine(i) follows it.
  const nn::ConvTranspose2d& up(size_t i) const { return up_.at(i); }
  const nn::ConvBnRelu& refine(size_t i) const { return refine_.at(i); }
  const nn::Conv2d& head() const { return head_; }

 private:
  std::vector<int64_t> stage_channels_;
  std::vector<nn::ConvTranspose2d> up_;     // deepest first
  std::vector<nn::ConvBnRelu> refine_;      // deepest first
  nn::Conv2d head_;
};

}  // namespace roadfusion::roadseg
