// Primitive trainable layers.
//
// Every layer offers two constructors:
//  * a fresh one that allocates and initializes its own parameters, and
//  * a sharing one that aliases the parameters (and, for BatchNorm2d, the
//    running statistics) of an existing instance — the building block of
//    the paper's Layer-sharing scheme.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "autograd/ops.hpp"
#include "nn/module.hpp"
#include "tensor/rng.hpp"

namespace roadfusion::nn {

using autograd::ConvGeometry;
using tensor::Rng;

/// MAC / parameter budget of a layer or network.
struct Complexity {
  int64_t macs = 0;    ///< multiply-accumulate operations per forward pass
  int64_t params = 0;  ///< trainable scalar count (shared params count once
                       ///< at the network level)

  Complexity& operator+=(const Complexity& other) {
    macs += other.macs;
    params += other.params;
    return *this;
  }
};

/// 2-D convolution layer with optional bias. Weight layout (Cout,Cin,K,K);
/// He-normal initialization. The forward lowers to im2col + the blocked
/// GEMM.
class Conv2d : public Module {
 public:
  Conv2d(const std::string& name, int64_t in_channels, int64_t out_channels,
         int64_t kernel, int64_t stride, int64_t padding, bool bias, Rng& rng);

  /// Shares parameters with `other` (Layer-sharing).
  Conv2d(const std::string& name, const Conv2d& other);

  Variable forward(const Variable& x) const;

  void collect_parameters(std::vector<ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<StateEntry>& out) override;

  /// Complexity for an input of the given spatial size.
  Complexity complexity(int64_t in_h, int64_t in_w) const;

  const ConvGeometry& geometry() const { return geom_; }
  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }

  /// True when this layer aliases the parameters of `other`.
  bool shares_parameters_with(const Conv2d& other) const {
    return weight_ == other.weight_;
  }

  /// Read-only parameter views for offline weight repacking (the inference
  /// plan snapshots these when it is built; DESIGN.md §16).
  const Tensor& weight_value() const { return weight_->var.value(); }
  const Tensor* bias_value() const {
    return bias_ ? &bias_->var.value() : nullptr;
  }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  ConvGeometry geom_;
  ParameterPtr weight_;
  ParameterPtr bias_;  // null when bias disabled
};

/// 2-D transposed convolution (decoder upsampling). Weight layout
/// (Cin, Cout, K, K).
class ConvTranspose2d : public Module {
 public:
  ConvTranspose2d(const std::string& name, int64_t in_channels,
                  int64_t out_channels, int64_t kernel, int64_t stride,
                  int64_t padding, bool bias, Rng& rng);

  Variable forward(const Variable& x) const;

  void collect_parameters(std::vector<ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<StateEntry>& out) override;

  Complexity complexity(int64_t in_h, int64_t in_w) const;

  const ConvGeometry& geometry() const { return geom_; }
  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  /// Weight tensor, layout (Cin, Cout, K, K).
  const Tensor& weight_value() const { return weight_->var.value(); }
  const Tensor* bias_value() const {
    return bias_ ? &bias_->var.value() : nullptr;
  }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  ConvGeometry geom_;
  ParameterPtr weight_;
  ParameterPtr bias_;
};

/// Batch normalization with affine parameters and running statistics.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(const std::string& name, int64_t channels);

  /// Shares gamma/beta and the running statistics with `other`.
  BatchNorm2d(const std::string& name, const BatchNorm2d& other);

  Variable forward(const Variable& x) const;

  void collect_parameters(std::vector<ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<StateEntry>& out) override;
  void set_training(bool training) override;

  Complexity complexity(int64_t in_h, int64_t in_w) const;

  int64_t channels() const { return channels_; }
  bool training() const { return training_; }

  /// Read-only views of the eval-mode affine for offline repacking (the
  /// inference plan folds them into its conv epilogues; DESIGN.md §16).
  const Tensor& gamma_value() const { return gamma_->var.value(); }
  const Tensor& beta_value() const { return beta_->var.value(); }
  const Tensor& running_mean() const { return state_->running_mean; }
  const Tensor& running_var() const { return state_->running_var; }

 private:
  int64_t channels_;
  ParameterPtr gamma_;
  ParameterPtr beta_;
  std::shared_ptr<autograd::BatchNormState> state_;
  bool training_ = true;
};

/// Fully connected layer; weight layout (Out, In).
class Linear : public Module {
 public:
  Linear(const std::string& name, int64_t in_features, int64_t out_features,
         bool bias, Rng& rng);

  Variable forward(const Variable& x) const;

  /// Raw no-graph inference forward, same arithmetic as the linear op.
  Tensor forward_infer(const Tensor& x) const;

  void collect_parameters(std::vector<ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<StateEntry>& out) override;

  Complexity complexity() const;

  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  ParameterPtr weight_;
  ParameterPtr bias_;
};

}  // namespace roadfusion::nn
