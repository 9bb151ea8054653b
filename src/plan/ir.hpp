// Inference plan IR (DESIGN.md §16).
//
// A compiled plan is a flat list of Steps over a flat list of buffer
// Slots — the output of the plan compiler and the only thing the
// executor interprets. Steps reference slots by index and packed weights
// by pointer into the geometry-independent PlanContext, so a plan is
// cheap to cache per input geometry and trivially inspectable (the
// --explain-plan printer walks the same two lists).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace roadfusion::plan {

/// Vector width of the blocked layout: NCHWc8, eight channels innermost.
constexpr int64_t kLanes = 8;

/// Channel blocks needed for `channels` channels (last block zero-padded).
inline int64_t blocks_of(int64_t channels) {
  return (channels + kLanes - 1) / kLanes;
}

/// Float count of an NCHWc8 buffer including its ring-1 zero border
/// (pad-1 convolutions read the border instead of testing bounds).
inline int64_t nchwc_floats(int64_t n, int64_t channels, int64_t h,
                            int64_t w) {
  return n * blocks_of(channels) * (h + 2) * (w + 2) * kLanes;
}

/// Buffer layout of one slot.
enum class Layout {
  kNchw,   ///< plain dense NCHW Tensor
  kNchwc,  ///< blocked NCHWc8 with ring-1 zero border, flat storage
};

/// One conv repacked for the blocked direct kernel: weights reordered to
/// [out_block][in_channel][ky][kx][lane] (lane = output channel within
/// the block, zero-padded past `cout`) with the fused per-output-channel
/// epilogue stored as lane-padded arrays. The epilogue replays the exact
/// scalar chain of the GEMM path — bias add, then (v - mean) * invstd
/// followed by gamma * xh + beta, then ReLU — and every padded lane's
/// parameters are zero so padded output lanes stay exactly 0.0f.
///
/// A transposed conv (2x2, stride 2, no padding: every output pixel has
/// exactly one tap) uses the same weight order and carries at most a bias.
struct PackedConv {
  std::string name;  ///< layer name for --explain-plan / spans
  int64_t cin = 0;
  int64_t cout = 0;
  /// Forward: 1 or 3, padding implied (3 -> pad 1). Transposed: 2.
  int64_t kernel = 1;
  int64_t stride = 1;
  bool transposed = false;
  std::vector<float> w;  ///< blocks_of(cout) * cin * kernel^2 * kLanes
  /// Lane-padded epilogue parameter arrays (blocks_of(cout) * kLanes each;
  /// empty = stage skipped). The four bn_* arrays are set together.
  std::vector<float> bias;
  std::vector<float> bn_mean;
  std::vector<float> bn_invstd;
  std::vector<float> bn_gamma;
  std::vector<float> bn_beta;
  bool relu = false;
};

/// One buffer of the plan. NCHW slots are workspace-arena tensors of
/// (n, c, h, w); NCHWc slots are regions of nchwc_floats(...) elements at
/// `offset` in the run's one scratch buffer whose border ring is zeroed
/// when their writer runs (the writer fills every interior lane).
struct SlotDef {
  Layout layout = Layout::kNchw;
  int64_t n = 0, c = 0, h = 0, w = 0;  ///< logical dims (border excluded)
  /// Index of the last step reading this slot. An NCHW slot is dropped
  /// right after that step so the arena can reuse its storage; an NCHWc
  /// slot's scratch region is free for later slots from then on. This is
  /// the dead-transient elimination that keeps the footprint minimal.
  /// -1 = never read.
  int last_use = -1;
  /// NCHWc only: float offset of the slot's region in the scratch buffer.
  int64_t offset = 0;
  /// >= 0: the slot is StreamFeatureCache::slots[cache_index], a heap
  /// buffer outside the arena that the stream-miss schedule writes and
  /// the stream-hit schedule reads. Never released.
  int cache_index = -1;
  std::string label;  ///< for --explain-plan
};

/// The network layer a step belongs to: the layer a kLayer step runs,
/// the branch of a kConvNchwc step, and the trace span both report in.
enum class LayerRef {
  kNone,
  kRgbStage,    ///< rgb encoder stage `stage` (stem or residual block)
  kDepthStage,  ///< depth encoder stage `stage`
  kDepthToRgb,  ///< depth->rgb fusion filter of `stage`
  kRgbToDepth,  ///< rgb->depth fusion filter of `stage` (AllFilter_B)
  kDecoderUp,   ///< decoder transition `stage` (deepest first): tconv + refine
  kDecoderHead,  ///< decoder 1x1 head and the logits conversion
};

enum class StepKind {
  /// An existing layer on plain NCHW through its `forward_infer`, so
  /// solver bindings and forced solvers apply to it as to any conv.
  /// src -> dst; src = -1 reads the network input of the step's branch.
  kLayer,
  /// src (NCHW) -> dst (NCHWc); src = -1 reads the network input of the
  /// step's branch.
  kConvertToNchwc,
  kConvertToNchw,   ///< src (NCHWc) -> dst (NCHW)
  /// Blocked direct conv src -> dst with the fused epilogue chain:
  /// bias -> BN affine -> (+ pre slot, the residual shortcut) -> ReLU ->
  /// (+ fusion_weight * post slot, the cross-layer fusion sum).
  kConvNchwc,
  /// Blocked 2x2/s2 transposed conv src -> dst (the decoder's upsampling)
  /// with the epilogue +bias -> (+ pre slot, the skip connection).
  kTConvNchwc,
  kAddInPlace,  ///< dst += src (AllFilter_B depth update), either layout
  kAccumulate,  ///< dst += fusion_weight * src (fusion sum), either layout
  /// WeightedSharing head on NCHW: w = AWN(dst, aux) per sample, then
  /// dst += fusion_weight * (w * aux). Reads aux only, so a cached aux
  /// survives for the next frame.
  kAwnFuse,
  /// All-NCHW schedule only: Decoder::forward_infer over the NCHW skip
  /// slots -> logits. The blocked schedule runs the decoder as
  /// kTConvNchwc / kConvNchwc steps instead.
  kDecoder,
};

struct Step {
  StepKind kind = StepKind::kLayer;
  int src = -1;
  int dst = -1;
  int pre = -1;   ///< kConvNchwc: residual shortcut; kTConvNchwc: skip
  int post = -1;  ///< kConvNchwc: fusion-sum slot (scaled by fusion weight)
  int aux = -1;   ///< kAwnFuse: depth features slot
  const PackedConv* conv = nullptr;  ///< kConvNchwc / kTConvNchwc only
  LayerRef layer = LayerRef::kNone;
  int stage = 0;  ///< for spans / --explain-plan
  /// Network layers (convs, AWN) this step executes, for
  /// roadfusion_plan_layers_total{layout}.
  int layers = 0;
};

}  // namespace roadfusion::plan
