// NCHWc8 blocked-layout kernels for the inference plan (DESIGN.md §16).
//
// Layout: a feature map (N, C, H, W) becomes N * ceil(C/8) channel
// blocks, each storing an (H+2) x (W+2) spatial plane with 8 channel
// lanes innermost. The extra ring is a zero border so the pad-1
// convolutions read it instead of branching on bounds: the executor
// zeroes it (zero_border) before a step writes the slot, and every
// writer — conversion, conv, transposed conv — fills all 8 lanes of every
// interior pixel. Channel lanes past C hold 0 (the conversion writes them
// as zeros; padded conv weights and epilogue parameters are zero), and
// in any case a padded lane is never read into a real lane: the kernels
// take input channels from real lanes only.
//
// Exactness contract: the direct conv accumulates each output element
// over (in_channel, ky, kx) in exactly the im2col row order with a single
// scalar accumulator chain per element — the blocked GEMM's own order,
// one chain per output at any reduction depth — and the fused epilogue
// replays the GEMM epilogue's scalar chain. The transposed conv
// sums over in_channel in GEMM order, then replays col2im's accumulate
// into a zeroed plane (0 + acc; 2x2 / stride 2, so one tap per output),
// then +bias, then the skip add. Plans therefore reproduce the graph path
// bit-for-bit (test_plan pins this).
#pragma once

#include "plan/ir.hpp"
#include "tensor/tensor.hpp"

namespace roadfusion::nn {
class Conv2d;
class ConvTranspose2d;
class BatchNorm2d;
}  // namespace roadfusion::nn

namespace roadfusion::plan {

/// Repacks `conv`'s weight (and optional fused eval-BN + ReLU, read from
/// `bn`'s running statistics and affine) into the blocked-kernel layout.
/// `bn` may be null; requires eval mode when set.
PackedConv pack_conv(const nn::Conv2d& conv, const nn::BatchNorm2d* bn,
                     bool relu, std::string name);

/// Repacks a 2x2 / stride-2 / no-padding transposed conv (the decoder's
/// upsampling) for tconv_nchwc.
PackedConv pack_tconv(const nn::ConvTranspose2d& conv, std::string name);

/// Zeroes the border ring of an NCHWc8 buffer (interior untouched).
void zero_border(float* p, int64_t n, int64_t c, int64_t h, int64_t w);

/// NCHW -> NCHWc8 over the interior: real lanes get the source values,
/// padded lanes 0. The border is left to zero_border.
void convert_to_nchwc(const float* src, int64_t n, int64_t c, int64_t h,
                      int64_t w, float* dst);

/// NCHWc8 -> NCHW (reads real channels only).
void convert_to_nchw(const float* src, int64_t n, int64_t c, int64_t h,
                     int64_t w, float* dst);

/// Direct blocked conv with the fused epilogue chain:
///   acc -> +bias -> BN affine -> +pre (residual shortcut) -> ReLU
///       -> +fusion_weight * post (cross-layer fusion sum).
/// `pre` / `post` are NCHWc8 buffers of the output geometry, or null.
/// Padding is implied by the kernel size (3 -> pad 1, 1 -> pad 0).
void conv_nchwc(const float* src, int64_t n, int64_t in_h, int64_t in_w,
                const PackedConv& pc, float* dst, int64_t out_h,
                int64_t out_w, const float* pre, const float* post,
                float fusion_weight);

/// Blocked 2x2 / stride-2 transposed conv src (in_h x in_w) -> dst
/// (2 in_h x 2 in_w) with the epilogue
///   0 + acc (col2im) -> +bias -> +pre (skip connection).
/// `pre` is an NCHWc8 buffer of the output geometry, or null.
void tconv_nchwc(const float* src, int64_t n, int64_t in_h, int64_t in_w,
                 const PackedConv& pc, float* dst, const float* pre);

/// global_avg_pool(r - d) of two same-geometry NCHWc8 buffers into the
/// row-major (n, c) `pooled`, reading real lanes of the interior only:
/// per (sample, channel), rows then columns, each difference rounded to
/// float before it enters a double accumulator — the graph's bits.
void pool_difference(const float* r, const float* d, int64_t n, int64_t c,
                     int64_t h, int64_t w, float* pooled);

/// The AWN fusion r += fusion_weight * (weight[s] * d) over each sample
/// s's whole NCHWc8 region of `sample_floats`, in the graph's
/// product-then-add order (weight 1 skips the scale). d is +0 on the
/// border and padded lanes and weight[s] is finite, so r stays +0 there.
void awn_accumulate(float* r, const float* d, int64_t n,
                    int64_t sample_floats, const float* weight,
                    float fusion_weight);

/// dst += src over two same-geometry NCHWc8 buffers (plain add — the
/// AllFilter_B depth-branch update order).
void add_in_place(float* dst, const float* src, int64_t floats);

/// dst += fusion_weight * src, replaying the graph accumulate's exact
/// float order (weight 1 skips the scale).
void accumulate(float* dst, const float* src, int64_t floats,
                float fusion_weight);

}  // namespace roadfusion::plan
