// Inference plan compiler — public surface (DESIGN.md §16).
//
// The plan compiler turns a RoadSegNet in eval mode into executable
// per-layer schedules and is the one path that serves its inference:
// predict and predict_fused run the fused schedule (fusion weight in
// (0, 1]) or the RGB-only one (weight 0, no depth-branch steps), and
// predict_stream runs the stream-miss schedule (which also writes each
// fusion step's depth input into the StreamFeatureCache) or the
// stream-hit one (which reads them instead of running the depth branch).
// Every slot is in the blocked NCHWc8 layout, run through a direct conv
// kernel (no im2col); the only NCHW buffers are the network inputs and
// the returned logits. The cross-layer elementwise chain (residual add,
// fusion-filter match, fusion sum) is fused into conv epilogues,
// WeightedSharing's AWN head pools and scales the blocked features in
// place, and slots share one scratch block once dead, so the buffer
// schedule is minimal. It serves every eval-mode RoadSegNet, at any
// depth and width, bit-for-bit equal to the autograd graph.
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
/// the `knob ROADFUSION_CPU_FEATURES=value tier=...` line (the one
/// kernel-selection knob, with the active tier), then a header per variant
/// (fused, rgb_only and, unless AllFilter_B, stream_miss and stream_hit),
/// then one line per step with layout, kernel, fused epilogue stages and
/// buffer slots — the backing of `roadfusion infer --explain-plan`.
/// Reports why instead when the graph serves the net (training mode).
std::string explain(const roadseg::RoadSegNet& net, int64_t n, int64_t h,
                    int64_t w);

/// One conv-running step of a compiled schedule.
struct ConvStep {
  /// e.g. "rgb.stage0", "decoder.up4", "decoder.head"; a decoder step's
  /// trace span carries the same name.
  std::string layer;
  std::string kind;    ///< "conv3x3/s1", "tconv2x2/s2", "conv1x1/s1"
  std::string kernel;  ///< "nchwc_direct" or "nchwc_direct_avx2"
};

/// The conv steps of the fused schedule `net` serves at (n, 3, h, w), in
/// execution order (empty in training mode). Like explain(), this
/// compiles outside the plan cache and moves no serving counter.
std::vector<ConvStep> conv_steps(const roadseg::RoadSegNet& net, int64_t n,
                                 int64_t h, int64_t w);

}  // namespace roadfusion::plan
