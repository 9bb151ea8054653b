// Inference plan compiler — public surface (DESIGN.md §16).
//
// The plan compiler turns a RoadSegNet in eval mode into executable
// per-layer schedules and is the one path that serves its inference:
// predict and predict_fused run the fused schedule (fusion weight in
// (0, 1]) or the RGB-only one (weight 0, no depth-branch steps), and
// predict_stream runs the stream-miss schedule (which also writes each
// fusion step's depth input into the StreamFeatureCache) or the
// stream-hit one (which reads them instead of running the depth branch).
// Interior encoder stages run in the blocked NCHWc8 layout through a
// direct conv kernel (no im2col), the cross-layer elementwise chain
// (residual add, fusion-filter match, fusion sum) is fused into conv
// epilogues, and transient buffers are released at their last use so
// the workspace arena sees the minimal buffer schedule. Under a forced
// solver, or when a conv reduces over more than one Kc block, every stage
// instead runs NCHW through the layers' own forward_infer calls, with the
// same fusion steps, and roadfusion_plan_declined_total{reason} counts
// the call.
//
// Integration happens through roadseg/plan_hook.hpp: linking rf_plan into
// a binary installs the hooks at static init (install_hooks() does it
// explicitly); without them every predict takes the autograd graph.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace roadfusion::roadseg {
class RoadSegNet;
}

namespace roadfusion::plan {

/// Installs the plan hooks into roadseg (idempotent; also performed by a
/// static initializer in this library, so merely linking rf_plan and
/// referencing any of its symbols is enough).
void install_hooks();

/// Human-readable schedules for `net` at input geometry (n, 3, h, w):
/// one `knob NAME=value` line per kernel-selection environment knob
/// (ROADFUSION_SOLVER, ROADFUSION_PERF_DB with the records in force,
/// ROADFUSION_CPU_FEATURES with the active tier), then a header per
/// variant (fused, rgb_only and, unless AllFilter_B, stream_miss and
/// stream_hit) with the layout and the reason for an NCHW one, then one
/// line per step with layout, kernel/solver, fused epilogue stages and
/// buffer slots — the backing of `roadfusion infer --explain-plan`. Reports why when the net has no plan.
std::string explain(const roadseg::RoadSegNet& net, int64_t n, int64_t h,
                    int64_t w);

/// One conv-running step of a compiled schedule.
struct ConvStep {
  std::string layer;   ///< e.g. "rgb.stage0", "decoder.up4", "decoder.head"
  std::string kind;    ///< "conv3x3/s1", "tconv2x2/s2"; NCHW: "layer", "decoder"
  std::string kernel;  ///< "nchwc_direct[_avx2]", or an NCHW step's solver
};

/// The conv steps of the fused schedule `net` serves at (n, 3, h, w), in
/// execution order (empty when the net has no plan). Like explain(), this
/// compiles outside the plan cache and moves no serving counter.
std::vector<ConvStep> conv_steps(const roadseg::RoadSegNet& net, int64_t n,
                                 int64_t h, int64_t w);

}  // namespace roadfusion::plan
