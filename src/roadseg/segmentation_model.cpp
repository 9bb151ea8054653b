#include "roadseg/segmentation_model.hpp"

#include <cmath>
#include <utility>

#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "common/check.hpp"
#include "roadseg/plan_hook.hpp"
#include "tensor/workspace.hpp"

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

std::shared_ptr<void> SegmentationModel::inference_plan() const {
  return nullptr;
}

void SegmentationModel::prepare_inference() const { (void)inference_plan(); }

namespace {

tensor::Tensor as_nchw(const tensor::Tensor& t) {
  return t.reshaped(tensor::Shape::nchw(1, t.shape().dim(0), t.shape().dim(1),
                                        t.shape().dim(2)));
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

/// The autograd graph's logits — what every model without a plan serves.
/// The stream cache has no use here and is invalidated.
tensor::Tensor graph_logits(const SegmentationModel& model,
                            const tensor::Tensor& rgb,
                            const tensor::Tensor& depth, float fusion_weight,
                            StreamFeatureCache* cache) {
  if (cache != nullptr) {
    cache->invalidate();
  }
  return model
      .forward_fused(autograd::Variable::constant(rgb),
                     autograd::Variable::constant(depth), fusion_weight)
      .logits.value();
}

/// Probabilities from the compiled plan when the model has one, else from
/// the autograd graph. `cache` (may be null) selects the stream schedules.
tensor::Tensor run_predict(const SegmentationModel& model,
                           const tensor::Tensor& rgb,
                           const tensor::Tensor& depth, float fusion_weight,
                           StreamFeatureCache* cache, bool depth_unchanged) {
  // Inference never needs the graph: with GradMode off, the graph path
  // skips backward closures and the conv im2col cache.
  const autograd::InferenceModeGuard no_grad;
  const bool chw = rgb.shape().rank() == 3;
  if (chw) {
    ROADFUSION_CHECK(depth.shape().rank() == 3,
                     "predict: rgb is CHW but depth is "
                         << depth.shape().str());
  }
  const auto logits = [&]() -> tensor::Tensor {
    const std::shared_ptr<void> plan = model.inference_plan();
    if (plan == nullptr) {
      // The graph needs NCHW (arena) copies of CHW inputs.
      return chw ? graph_logits(model, as_nchw(rgb), as_nchw(depth),
                                fusion_weight, cache)
                 : graph_logits(model, rgb, depth, fusion_weight, cache);
    }
    // The plan reads CHW inputs in place.
    const auto planned = [&] {
      return plan_hooks().run(model, plan, rgb, depth, fusion_weight, cache,
                              depth_unchanged);
    };
    if (tensor::Workspace::current() != nullptr) {
      return planned();
    }
    // Direct callers get a per-thread arena: the first predict on a thread
    // populates it, every later one is allocation-free.
    thread_local tensor::Workspace workspace;
    const tensor::WorkspaceScope scope(workspace);
    return planned();
  };
  tensor::Tensor out = logits();
  sigmoid_in_place(out);
  if (chw) {
    return std::move(out).reshaped(
        tensor::Shape::chw(1, rgb.shape().dim(1), rgb.shape().dim(2)));
  }
  return out;
}

}  // namespace

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
