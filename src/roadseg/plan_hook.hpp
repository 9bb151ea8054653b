// Dependency-inversion seam between RoadSegNet and the inference plan
// compiler (src/plan, DESIGN.md §16).
//
// rf_plan sits *above* rf_roadseg in the link order (the compiler walks
// the network through the public structural accessors), so RoadSegNet
// cannot call into it directly. Instead the plan library installs a pair
// of function pointers here at static-init time: RoadSegNet compiles its
// plan through `build`, and every eval-mode predict, predict_fused and
// predict_stream of a model that has a plan runs through `run`, which
// serves it. A binary that does not link
// rf_plan has no hooks, so its models have no plan and every predict
// takes the autograd graph.
#pragma once

#include <memory>

#include "tensor/tensor.hpp"

namespace roadfusion::roadseg {

class RoadSegNet;
class SegmentationModel;
struct StreamFeatureCache;

/// The plan compiler's entry points. `build` returns the opaque per-model
/// plan state. `run` executes one inference against a state `build`
/// returned for `model` and yields the (N, 1, H, W) logits, bit-identical
/// to `forward_fused(...).logits`; rank-3 (C, H, W) inputs are read as
/// batch 1 without a copy. A non-null `cache` selects the stream
/// schedules: the cache's slots are reused when `depth_unchanged` holds
/// and they match the schedule, and repopulated otherwise.
struct PlanHooks {
  std::shared_ptr<void> (*build)(const RoadSegNet& net) = nullptr;
  tensor::Tensor (*run)(const SegmentationModel& model,
                        const std::shared_ptr<void>& state,
                        const tensor::Tensor& rgb, const tensor::Tensor& depth,
                        float fusion_weight, StreamFeatureCache* cache,
                        bool depth_unchanged) = nullptr;
};

/// Installs the hooks (called from rf_plan's static initializer; passing
/// a default-constructed PlanHooks uninstalls).
void set_plan_hooks(const PlanHooks& hooks);

/// The currently installed hooks (all-null when none are installed).
PlanHooks plan_hooks();

}  // namespace roadfusion::roadseg
