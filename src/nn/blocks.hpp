// Composite building blocks used by the RoadSeg encoder/decoder.
//
// Like the primitive layers, each block has a fresh constructor and a
// sharing constructor that aliases all parameters of an existing block —
// used to share whole encoder stages between the RGB and depth branches.
#pragma once

#include <memory>
#include <string>

#include "nn/layers.hpp"

namespace roadfusion::nn {

/// Conv -> BatchNorm -> ReLU.
class ConvBnRelu : public Module {
 public:
  ConvBnRelu(const std::string& name, int64_t in_channels,
             int64_t out_channels, int64_t kernel, int64_t stride,
             int64_t padding, Rng& rng);

  /// Shares all parameters with `other`.
  ConvBnRelu(const std::string& name, const ConvBnRelu& other);

  Variable forward(const Variable& x) const;

  void collect_parameters(std::vector<ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<StateEntry>& out) override;
  void set_training(bool training) override;

  Complexity complexity(int64_t in_h, int64_t in_w) const;

  const Conv2d& conv() const { return conv_; }
  const BatchNorm2d& bn() const { return bn_; }

 private:
  Conv2d conv_;
  BatchNorm2d bn_;
};

/// ResNet basic block: two 3x3 conv-bn pairs with identity (or 1x1
/// projection) shortcut, ReLU after the residual sum. `stride` applies to
/// the first convolution and, when needed, the projection.
class ResidualBlock : public Module {
 public:
  ResidualBlock(const std::string& name, int64_t in_channels,
                int64_t out_channels, int64_t stride, Rng& rng);

  /// Shares all parameters with `other`.
  ResidualBlock(const std::string& name, const ResidualBlock& other);

  Variable forward(const Variable& x) const;

  void collect_parameters(std::vector<ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<StateEntry>& out) override;
  void set_training(bool training) override;

  Complexity complexity(int64_t in_h, int64_t in_w) const;

  int64_t out_channels() const { return conv2_.out_channels(); }

  /// Structural accessors for the inference plan compiler (DESIGN.md §16):
  /// it repacks each constituent layer into the blocked layout and fuses
  /// the BN affines / residual add into the conv epilogues itself.
  const ConvBnRelu& conv1() const { return conv1_; }
  const Conv2d& conv2() const { return conv2_; }
  const BatchNorm2d& bn2() const { return bn2_; }
  const Conv2d* projection() const { return projection_.get(); }
  const BatchNorm2d* projection_bn() const { return projection_bn_.get(); }

 private:
  bool has_projection() const { return projection_ != nullptr; }

  ConvBnRelu conv1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  std::unique_ptr<Conv2d> projection_;
  std::unique_ptr<BatchNorm2d> projection_bn_;
};

}  // namespace roadfusion::nn
