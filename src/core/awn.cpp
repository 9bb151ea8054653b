#include "core/awn.hpp"

#include <algorithm>
#include <cmath>

#include "autograd/ops.hpp"
#include "common/check.hpp"

namespace roadfusion::core {

AuxiliaryWeightNetwork::AuxiliaryWeightNetwork(const std::string& name,
                                               int64_t channels, Rng& rng,
                                               int64_t hidden)
    : fc1_(name + ".awn_fc1", channels,
           hidden > 0 ? hidden : std::max<int64_t>(4, channels / 2),
           /*bias=*/true, rng),
      fc2_(name + ".awn_fc2",
           hidden > 0 ? hidden : std::max<int64_t>(4, channels / 2), 1,
           /*bias=*/true, rng) {}

Variable AuxiliaryWeightNetwork::weight(const Variable& rgb_features,
                                        const Variable& depth_features) const {
  ROADFUSION_CHECK(rgb_features.shape() == depth_features.shape(),
                   "AWN: shape mismatch " << rgb_features.shape().str()
                                          << " vs "
                                          << depth_features.shape().str());
  const Variable diff = autograd::sub(rgb_features, depth_features);
  const Variable pooled = autograd::global_avg_pool(diff);  // (N, C)
  const Variable hidden = autograd::relu(fc1_.forward(pooled));
  const Variable raw = fc2_.forward(hidden);  // (N, 1)
  // 2 * sigmoid keeps the weight positive and centred near 1 at init.
  return autograd::scale(autograd::sigmoid(raw), 2.0f);
}

tensor::Tensor AuxiliaryWeightNetwork::weight_from_pooled(
    const tensor::Tensor& pooled) const {
  tensor::Tensor hidden = fc1_.forward_infer(pooled);
  float* ph = hidden.raw();
  for (int64_t i = 0; i < hidden.numel(); ++i) {
    ph[i] = ph[i] > 0.0f ? ph[i] : 0.0f;
  }
  tensor::Tensor raw = fc2_.forward_infer(hidden);  // (N, 1)
  float* po = raw.raw();
  for (int64_t i = 0; i < raw.numel(); ++i) {
    const float v = po[i];
    const float sig = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                                : std::exp(v) / (1.0f + std::exp(v));
    po[i] = sig * 2.0f;
  }
  return raw;
}

Variable AuxiliaryWeightNetwork::fuse(const Variable& rgb_features,
                                      const Variable& depth_features) const {
  const Variable w = weight(rgb_features, depth_features);
  return autograd::add(rgb_features,
                       autograd::scale_per_sample(depth_features, w));
}

void AuxiliaryWeightNetwork::collect_parameters(
    std::vector<nn::ParameterPtr>& out) const {
  fc1_.collect_parameters(out);
  fc2_.collect_parameters(out);
}

void AuxiliaryWeightNetwork::collect_state(const std::string& prefix,
                                           std::vector<nn::StateEntry>& out) {
  fc1_.collect_state(prefix, out);
  fc2_.collect_state(prefix, out);
}

Complexity AuxiliaryWeightNetwork::complexity() const {
  Complexity c = fc1_.complexity();
  c += fc2_.complexity();
  return c;
}

}  // namespace roadfusion::core
