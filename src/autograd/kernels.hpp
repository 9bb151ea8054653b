// Raw numeric kernels behind the autograd ops: im2col/col2im lowering for
// convolutions, depthwise 3x3
// correlation for the Sobel edge op, and max-pool index
// bookkeeping. All functions operate on plain Tensors; the autograd layer
// in ops.cpp composes them into differentiable ops.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace roadfusion::autograd::kernels {

using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// im2col / col2im
// ---------------------------------------------------------------------------

/// Number of im2col invocations since the last reset (process-wide,
/// atomic). Test hook: the conv backward reuses the forward's cached
/// columns, and tests pin "one im2col per conv per sample per step" here.
uint64_t im2col_call_count();
void reset_im2col_call_count();

/// Geometry of a 2-D convolution (square kernel/stride/padding).
struct ConvGeometry {
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 1;

  /// Output extent for an input extent under this geometry.
  int64_t out_extent(int64_t in) const {
    return (in + 2 * padding - kernel) / stride + 1;
  }

  /// Input extent reconstructed by the transposed convolution for a given
  /// (transposed-conv input) extent.
  int64_t transposed_out_extent(int64_t in) const {
    return (in - 1) * stride + kernel - 2 * padding;
  }
};

/// Lowers one image (C, H, W) to a column matrix (C*K*K, Ho*Wo) so the
/// convolution becomes a GEMM. Out-of-bounds taps read zero (zero padding).
/// `image` points at C*H*W contiguous floats.
Tensor im2col(const float* image, int64_t channels, int64_t height,
              int64_t width, const ConvGeometry& geom);

/// Inverse lowering: accumulates a column matrix (C*K*K, Ho*Wo) back into
/// an image buffer of C*H*W floats (+=, so the caller zero-fills first).
void col2im_accumulate(const Tensor& columns, int64_t channels, int64_t height,
                       int64_t width, const ConvGeometry& geom, float* image);

/// Depthwise 3x3 cross-correlation with a single shared kernel applied to
/// every channel independently; zero padding of 1 keeps spatial size.
/// Input/output are NCHW.
Tensor depthwise3x3(const Tensor& input, const float kernel[9]);

/// Adjoint of depthwise3x3 for the same kernel: given the gradient of the
/// output, returns the gradient of the input (correlation with the
/// spatially flipped kernel).
Tensor depthwise3x3_adjoint(const Tensor& grad_output, const float kernel[9]);

/// Forward max pooling. Returns the pooled tensor and writes the flat
/// input-index of each selected maximum into `argmax` (resized to the
/// output numel), which the backward pass uses to route gradients.
Tensor max_pool2d(const Tensor& input, int64_t kernel, int64_t stride,
                  std::vector<int64_t>& argmax);

/// Backward max pooling: scatters grad_output into a zero tensor shaped
/// like the original input, using the recorded argmax indices.
Tensor max_pool2d_backward(const Tensor& grad_output, const Shape& input_shape,
                           const std::vector<int64_t>& argmax);

}  // namespace roadfusion::autograd::kernels
