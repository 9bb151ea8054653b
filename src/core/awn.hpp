// Auxiliary Weight Network (AWN) — the WeightedSharing fusion head.
//
// After the deepest encoder stage is shared between the RGB and depth
// branches, the implicit per-branch weighting that separate filters used
// to provide is gone. The AWN restores it dynamically: the difference of
// the two shared-stage feature stacks is pooled and pushed through a
// stacked fully-connected head that emits one scalar weight per sample,
// applied to the depth features at fusion time:
//
//   w   = AWN(f_rgb - f_depth)
//   f'  = f_rgb + w (element-scale) f_depth
#pragma once

#include <memory>

#include "nn/layers.hpp"

namespace roadfusion::core {

using autograd::Variable;
using nn::Complexity;
using nn::Rng;

/// The auxiliary weight head of the WeightedSharing architecture.
class AuxiliaryWeightNetwork : public nn::Module {
 public:
  /// `channels`: channel count of the shared deepest stage;
  /// `hidden`: width of the FC hidden layer (default channels / 2, min 4).
  AuxiliaryWeightNetwork(const std::string& name, int64_t channels,
                         Rng& rng, int64_t hidden = 0);

  /// Per-sample fusion weight, shape (N, 1); each value lies in (0, 2)
  /// (2 * sigmoid), so the network can both down- and up-weight the depth
  /// contribution around the implicit baseline weight of 1.
  Variable weight(const Variable& rgb_features,
                  const Variable& depth_features) const;

  /// Weighted fusion: rgb + w * depth.
  Variable fuse(const Variable& rgb_features,
                const Variable& depth_features) const;

  /// Raw no-graph inference analogue of `weight`'s head (DESIGN.md §11):
  /// `pooled` is global_avg_pool(rgb - depth), shape (N, C), pooled by
  /// the caller in that op's order; returns FC -> ReLU -> FC -> 2*sigmoid,
  /// shape (N, 1), bit-identical to `weight`.
  tensor::Tensor weight_from_pooled(const tensor::Tensor& pooled) const;

  void collect_parameters(std::vector<nn::ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<nn::StateEntry>& out) override;

  Complexity complexity() const;

 private:
  nn::Linear fc1_;
  nn::Linear fc2_;
};

}  // namespace roadfusion::core
