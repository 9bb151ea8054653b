#include "roadseg/segmentation_model.hpp"

#include <cmath>
#include <utility>

#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "common/check.hpp"

namespace roadfusion::roadseg {

ForwardResult SegmentationModel::forward_fused(const autograd::Variable& rgb,
                                               const autograd::Variable& depth,
                                               float fusion_weight) const {
  ROADFUSION_CHECK(fusion_weight >= 0.0f && fusion_weight <= 1.0f,
                   "fusion_weight must be in [0, 1], got " << fusion_weight);
  if (fusion_weight == 1.0f) {
    return forward(rgb, depth);
  }
  if (fusion_weight == 0.0f) {
    // Never touch the depth values: a zero tensor of the same geometry is
    // the NaN-safe neutral element for every fusion family (summation,
    // concatenation, decision averaging all see "no depth evidence").
    return forward(rgb, autograd::Variable::constant(
                            tensor::Tensor(depth.shape())));
  }
  return forward(rgb, autograd::scale(depth, fusion_weight));
}

void SegmentationModel::check_inputs(const tensor::Shape& rgb,
                                     const tensor::Shape& depth,
                                     float fusion_weight) const {
  ROADFUSION_CHECK(rgb.rank() == 4 && depth.rank() == 4,
                   "forward expects NCHW inputs, got rgb "
                       << rgb.str() << " and depth " << depth.str());
  ROADFUSION_CHECK(rgb.batch() == depth.batch() &&
                       rgb.height() == depth.height() &&
                       rgb.width() == depth.width(),
                   "forward: rgb " << rgb.str() << " vs depth "
                                   << depth.str());
  ROADFUSION_CHECK(fusion_weight >= 0.0f && fusion_weight <= 1.0f,
                   "fusion_weight must be in [0, 1], got " << fusion_weight);
}

namespace {

/// A CHW input as the batch-1 NCHW (arena) copy the graph reads.
tensor::Tensor as_nchw(const tensor::Tensor& t) {
  return t.shape().rank() == 3
             ? t.reshaped(tensor::Shape::nchw(1, t.shape().dim(0),
                                              t.shape().dim(1),
                                              t.shape().dim(2)))
             : t;
}

/// Logits -> probabilities, in place, with the numerically-stable
/// two-branch formula of autograd::sigmoid (bit-identical to it).
void sigmoid_in_place(tensor::Tensor& t) {
  float* p = t.raw();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) {
    const float v = p[i];
    if (v >= 0.0f) {
      p[i] = 1.0f / (1.0f + std::exp(-v));
    } else {
      const float e = std::exp(v);
      p[i] = e / (1.0f + e);
    }
  }
}

/// Probabilities from the model's inference logits. `cache` (may be null)
/// selects the stream schedules.
tensor::Tensor run_predict(const SegmentationModel& model,
                           const tensor::Tensor& rgb,
                           const tensor::Tensor& depth, float fusion_weight,
                           StreamFeatureCache* cache, bool depth_unchanged) {
  // Inference never needs the graph: with GradMode off, the graph path
  // skips backward closures and the conv im2col cache.
  const autograd::InferenceModeGuard no_grad;
  ROADFUSION_CHECK(rgb.shape().rank() == depth.shape().rank(),
                   "predict: rgb " << rgb.shape().str() << " and depth "
                                   << depth.shape().str()
                                   << " differ in rank");
  tensor::Tensor out = model.inference_logits(rgb, depth, fusion_weight,
                                              cache, depth_unchanged);
  sigmoid_in_place(out);
  if (rgb.shape().rank() == 3) {
    return std::move(out).reshaped(
        tensor::Shape::chw(1, rgb.shape().dim(1), rgb.shape().dim(2)));
  }
  return out;
}

}  // namespace

tensor::Tensor SegmentationModel::inference_logits(
    const tensor::Tensor& rgb, const tensor::Tensor& depth,
    float fusion_weight, StreamFeatureCache* cache,
    bool /*depth_unchanged*/) const {
  if (cache != nullptr) {
    cache->invalidate();
  }
  return forward_fused(autograd::Variable::constant(as_nchw(rgb)),
                       autograd::Variable::constant(as_nchw(depth)),
                       fusion_weight)
      .logits.value();
}

tensor::Tensor SegmentationModel::predict(const tensor::Tensor& rgb,
                                          const tensor::Tensor& depth) const {
  return run_predict(*this, rgb, depth, 1.0f, nullptr, false);
}

tensor::Tensor SegmentationModel::predict_fused(const tensor::Tensor& rgb,
                                                const tensor::Tensor& depth,
                                                float fusion_weight) const {
  return run_predict(*this, rgb, depth, fusion_weight, nullptr, false);
}

tensor::Tensor SegmentationModel::predict_stream(const tensor::Tensor& rgb,
                                                 const tensor::Tensor& depth,
                                                 float fusion_weight,
                                                 StreamFeatureCache& cache,
                                                 bool depth_unchanged) const {
  return run_predict(*this, rgb, depth, fusion_weight, &cache,
                     depth_unchanged);
}

}  // namespace roadfusion::roadseg
