#include "nn/layers.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace roadfusion::nn {
namespace {

namespace t = roadfusion::tensor;

/// He-normal initialization: stddev = sqrt(2 / fan_in).
Tensor he_normal(const Shape& shape, int64_t fan_in, Rng& rng) {
  ROADFUSION_CHECK(fan_in > 0, "he_normal: non-positive fan-in");
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Tensor::normal(shape, rng, 0.0f, stddev);
}

}  // namespace

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

Conv2d::Conv2d(const std::string& name, int64_t in_channels,
               int64_t out_channels, int64_t kernel, int64_t stride,
               int64_t padding, bool bias, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      geom_{kernel, stride, padding} {
  ROADFUSION_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                       stride > 0 && padding >= 0,
                   "Conv2d '" << name << "': invalid geometry");
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = std::make_shared<Parameter>(
      name + ".weight",
      he_normal(Shape::nchw(out_channels, in_channels, kernel, kernel), fan_in,
                rng));
  if (bias) {
    bias_ = std::make_shared<Parameter>(name + ".bias",
                                        Tensor::zeros(Shape::vec(out_channels)));
  }
}

Conv2d::Conv2d(const std::string& name, const Conv2d& other)
    : in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      geom_(other.geom_),
      weight_(other.weight_),
      bias_(other.bias_) {
  (void)name;  // the shared parameters keep their original names
}

Variable Conv2d::forward(const Variable& x) const {
  return autograd::conv2d(x, weight_->var,
                          bias_ ? bias_->var : Variable(), geom_);
}

void Conv2d::collect_parameters(std::vector<ParameterPtr>& out) const {
  out.push_back(weight_);
  if (bias_) {
    out.push_back(bias_);
  }
}

void Conv2d::collect_state(const std::string& prefix,
                           std::vector<StateEntry>& out) {
  out.push_back({prefix + weight_->name, &weight_->var.mutable_value()});
  if (bias_) {
    out.push_back({prefix + bias_->name, &bias_->var.mutable_value()});
  }
}

Complexity Conv2d::complexity(int64_t in_h, int64_t in_w) const {
  const int64_t out_h = geom_.out_extent(in_h);
  const int64_t out_w = geom_.out_extent(in_w);
  Complexity c;
  c.macs = out_channels_ * in_channels_ * geom_.kernel * geom_.kernel * out_h *
           out_w;
  c.params = weight_->var.value().numel() +
             (bias_ ? bias_->var.value().numel() : 0);
  return c;
}

// ---------------------------------------------------------------------------
// ConvTranspose2d
// ---------------------------------------------------------------------------

ConvTranspose2d::ConvTranspose2d(const std::string& name, int64_t in_channels,
                                 int64_t out_channels, int64_t kernel,
                                 int64_t stride, int64_t padding, bool bias,
                                 Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      geom_{kernel, stride, padding} {
  ROADFUSION_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                       stride > 0 && padding >= 0,
                   "ConvTranspose2d '" << name << "': invalid geometry");
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = std::make_shared<Parameter>(
      name + ".weight",
      he_normal(Shape::nchw(in_channels, out_channels, kernel, kernel), fan_in,
                rng));
  if (bias) {
    bias_ = std::make_shared<Parameter>(name + ".bias",
                                        Tensor::zeros(Shape::vec(out_channels)));
  }
}

Variable ConvTranspose2d::forward(const Variable& x) const {
  return autograd::conv_transpose2d(x, weight_->var,
                                    bias_ ? bias_->var : Variable(), geom_);
}

void ConvTranspose2d::collect_parameters(std::vector<ParameterPtr>& out) const {
  out.push_back(weight_);
  if (bias_) {
    out.push_back(bias_);
  }
}

void ConvTranspose2d::collect_state(const std::string& prefix,
                                    std::vector<StateEntry>& out) {
  out.push_back({prefix + weight_->name, &weight_->var.mutable_value()});
  if (bias_) {
    out.push_back({prefix + bias_->name, &bias_->var.mutable_value()});
  }
}

Complexity ConvTranspose2d::complexity(int64_t in_h, int64_t in_w) const {
  Complexity c;
  // Each input location contributes Cin*Cout*K*K multiply-accumulates.
  c.macs = in_channels_ * out_channels_ * geom_.kernel * geom_.kernel * in_h *
           in_w;
  c.params = weight_->var.value().numel() +
             (bias_ ? bias_->var.value().numel() : 0);
  return c;
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

BatchNorm2d::BatchNorm2d(const std::string& name, int64_t channels)
    : channels_(channels) {
  ROADFUSION_CHECK(channels > 0, "BatchNorm2d '" << name << "': bad channels");
  gamma_ = std::make_shared<Parameter>(name + ".gamma",
                                       Tensor::ones(Shape::vec(channels)));
  beta_ = std::make_shared<Parameter>(name + ".beta",
                                      Tensor::zeros(Shape::vec(channels)));
  state_ = std::make_shared<autograd::BatchNormState>();
  state_->running_mean = Tensor::zeros(Shape::vec(channels));
  state_->running_var = Tensor::ones(Shape::vec(channels));
}

BatchNorm2d::BatchNorm2d(const std::string& name, const BatchNorm2d& other)
    : channels_(other.channels_),
      gamma_(other.gamma_),
      beta_(other.beta_),
      state_(other.state_),
      training_(other.training_) {
  (void)name;
}

Variable BatchNorm2d::forward(const Variable& x) const {
  return autograd::batch_norm2d(x, gamma_->var, beta_->var, state_, training_);
}

void BatchNorm2d::collect_parameters(std::vector<ParameterPtr>& out) const {
  out.push_back(gamma_);
  out.push_back(beta_);
}

void BatchNorm2d::collect_state(const std::string& prefix,
                                std::vector<StateEntry>& out) {
  out.push_back({prefix + gamma_->name, &gamma_->var.mutable_value()});
  out.push_back({prefix + beta_->name, &beta_->var.mutable_value()});
  out.push_back({prefix + gamma_->name + ".running_mean",
                 &state_->running_mean});
  out.push_back({prefix + gamma_->name + ".running_var",
                 &state_->running_var});
}

void BatchNorm2d::set_training(bool training) {
  if (training != training_) {
    // Training forwards mutate the running statistics the inference plan
    // was packed from; mode flips are the cheap place to invalidate.
    invalidate_inference_caches();
  }
  training_ = training;
}

Complexity BatchNorm2d::complexity(int64_t in_h, int64_t in_w) const {
  Complexity c;
  c.macs = 2 * channels_ * in_h * in_w;
  c.params = 2 * channels_;
  return c;
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(const std::string& name, int64_t in_features,
               int64_t out_features, bool bias, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  ROADFUSION_CHECK(in_features > 0 && out_features > 0,
                   "Linear '" << name << "': bad dimensions");
  weight_ = std::make_shared<Parameter>(
      name + ".weight",
      he_normal(Shape::mat(out_features, in_features), in_features, rng));
  if (bias) {
    bias_ = std::make_shared<Parameter>(
        name + ".bias", Tensor::zeros(Shape::vec(out_features)));
  }
}

Variable Linear::forward(const Variable& x) const {
  return autograd::linear(x, weight_->var, bias_ ? bias_->var : Variable());
}

Tensor Linear::forward_infer(const Tensor& x) const {
  ROADFUSION_CHECK(x.shape().rank() == 2 &&
                       x.shape().dim(1) == in_features_,
                   "Linear::forward_infer: bad input " << x.shape().str());
  // Same arithmetic as the linear op's forward: x @ W^T, then bias rows.
  Tensor out = t::matmul_bt(x, weight_->var.value());
  if (bias_) {
    const int64_t batch = x.shape().dim(0);
    const float* pb = bias_->var.value().raw();
    float* po = out.raw();
    for (int64_t s = 0; s < batch; ++s) {
      for (int64_t o = 0; o < out_features_; ++o) {
        po[s * out_features_ + o] += pb[o];
      }
    }
  }
  return out;
}

void Linear::collect_parameters(std::vector<ParameterPtr>& out) const {
  out.push_back(weight_);
  if (bias_) {
    out.push_back(bias_);
  }
}

void Linear::collect_state(const std::string& prefix,
                           std::vector<StateEntry>& out) {
  out.push_back({prefix + weight_->name, &weight_->var.mutable_value()});
  if (bias_) {
    out.push_back({prefix + bias_->name, &bias_->var.mutable_value()});
  }
}

Complexity Linear::complexity() const {
  Complexity c;
  c.macs = in_features_ * out_features_;
  c.params = weight_->var.value().numel() +
             (bias_ ? bias_->var.value().numel() : 0);
  return c;
}

}  // namespace roadfusion::nn
