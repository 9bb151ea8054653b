#include "nn/blocks.hpp"

#include "common/check.hpp"

namespace roadfusion::nn {

// ---------------------------------------------------------------------------
// ConvBnRelu
// ---------------------------------------------------------------------------

ConvBnRelu::ConvBnRelu(const std::string& name, int64_t in_channels,
                       int64_t out_channels, int64_t kernel, int64_t stride,
                       int64_t padding, Rng& rng)
    : conv_(name + ".conv", in_channels, out_channels, kernel, stride, padding,
            /*bias=*/false, rng),
      bn_(name + ".bn", out_channels) {}

ConvBnRelu::ConvBnRelu(const std::string& name, const ConvBnRelu& other)
    : conv_(name + ".conv", other.conv_), bn_(name + ".bn", other.bn_) {}

Variable ConvBnRelu::forward(const Variable& x) const {
  return autograd::relu(bn_.forward(conv_.forward(x)));
}

void ConvBnRelu::collect_parameters(std::vector<ParameterPtr>& out) const {
  conv_.collect_parameters(out);
  bn_.collect_parameters(out);
}

void ConvBnRelu::collect_state(const std::string& prefix,
                               std::vector<StateEntry>& out) {
  conv_.collect_state(prefix, out);
  bn_.collect_state(prefix, out);
}

void ConvBnRelu::set_training(bool training) { bn_.set_training(training); }

Complexity ConvBnRelu::complexity(int64_t in_h, int64_t in_w) const {
  Complexity c = conv_.complexity(in_h, in_w);
  const int64_t out_h = conv_.geometry().out_extent(in_h);
  const int64_t out_w = conv_.geometry().out_extent(in_w);
  c += bn_.complexity(out_h, out_w);
  return c;
}

// ---------------------------------------------------------------------------
// ResidualBlock
// ---------------------------------------------------------------------------

ResidualBlock::ResidualBlock(const std::string& name, int64_t in_channels,
                             int64_t out_channels, int64_t stride, Rng& rng)
    : conv1_(name + ".conv1", in_channels, out_channels, 3, stride, 1, rng),
      conv2_(name + ".conv2", out_channels, out_channels, 3, 1, 1,
             /*bias=*/false, rng),
      bn2_(name + ".bn2", out_channels) {
  if (stride != 1 || in_channels != out_channels) {
    projection_ = std::make_unique<Conv2d>(name + ".proj", in_channels,
                                           out_channels, 1, stride, 0,
                                           /*bias=*/false, rng);
    projection_bn_ =
        std::make_unique<BatchNorm2d>(name + ".proj_bn", out_channels);
  }
}

ResidualBlock::ResidualBlock(const std::string& name,
                             const ResidualBlock& other)
    : conv1_(name + ".conv1", other.conv1_),
      conv2_(name + ".conv2", other.conv2_),
      bn2_(name + ".bn2", other.bn2_) {
  if (other.projection_) {
    projection_ = std::make_unique<Conv2d>(name + ".proj", *other.projection_);
    projection_bn_ =
        std::make_unique<BatchNorm2d>(name + ".proj_bn", *other.projection_bn_);
  }
}

Variable ResidualBlock::forward(const Variable& x) const {
  Variable out = bn2_.forward(conv2_.forward(conv1_.forward(x)));
  Variable shortcut = x;
  if (has_projection()) {
    shortcut = projection_bn_->forward(projection_->forward(x));
  }
  return autograd::relu(autograd::add(out, shortcut));
}

void ResidualBlock::collect_parameters(std::vector<ParameterPtr>& out) const {
  conv1_.collect_parameters(out);
  conv2_.collect_parameters(out);
  bn2_.collect_parameters(out);
  if (has_projection()) {
    projection_->collect_parameters(out);
    projection_bn_->collect_parameters(out);
  }
}

void ResidualBlock::collect_state(const std::string& prefix,
                                  std::vector<StateEntry>& out) {
  conv1_.collect_state(prefix, out);
  conv2_.collect_state(prefix, out);
  bn2_.collect_state(prefix, out);
  if (has_projection()) {
    projection_->collect_state(prefix, out);
    projection_bn_->collect_state(prefix, out);
  }
}

void ResidualBlock::set_training(bool training) {
  conv1_.set_training(training);
  bn2_.set_training(training);
  if (has_projection()) {
    projection_bn_->set_training(training);
  }
}

Complexity ResidualBlock::complexity(int64_t in_h, int64_t in_w) const {
  Complexity c = conv1_.complexity(in_h, in_w);
  const int64_t mid_h = conv1_.conv().geometry().out_extent(in_h);
  const int64_t mid_w = conv1_.conv().geometry().out_extent(in_w);
  c += conv2_.complexity(mid_h, mid_w);
  c += bn2_.complexity(mid_h, mid_w);
  if (has_projection()) {
    c += projection_->complexity(in_h, in_w);
    c += projection_bn_->complexity(mid_h, mid_w);
  }
  return c;
}

}  // namespace roadfusion::nn
