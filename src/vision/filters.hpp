// Classic spatial filters (non-differentiable path).
//
// Functions operate on the trailing two dimensions of a rank-2..4 tensor,
// treating everything before them as independent planes; this lets the
// same code serve single images (H, W), CHW images, and NCHW feature
// stacks.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace roadfusion::vision {

using tensor::Tensor;

/// Radius ceil(3 sigma) of the Gaussian kernel.
int64_t gaussian_radius(double sigma);

/// Discrete 1-D Gaussian kernel with radius ceil(3 sigma), normalized to
/// sum 1.
std::vector<float> gaussian_kernel(double sigma);

/// The same kernel written to `taps` (2 * gaussian_radius(sigma) + 1
/// floats), for callers that keep it in their own scratch.
void gaussian_kernel(double sigma, float* taps);

/// Separable Gaussian blur over the trailing two dimensions. Border
/// handling: clamp-to-edge.
Tensor gaussian_blur(const Tensor& input, double sigma);

// The two passes of gaussian_blur, for pipelines that produce the rows
// themselves. Each output value sums the taps in kernel order, every tap
// a float product widened and accumulated into a double that starts at
// +0.0, so the results are bit-identical to gaussian_blur's. `acc` is
// `w` doubles of caller scratch.

/// Horizontal pass over one row: `padded` holds the row's `w` values
/// preceded and followed by `radius` copies of its edge values.
void horizontal_blur_row(const float* padded, int64_t w, const float* taps,
                         int64_t radius, double* acc, float* out);

/// Vertical pass producing row `y` of an h x w plane's blur (rows past the
/// edges clamp to the edge rows) into `out`.
void vertical_blur_row(const float* plane, int64_t h, int64_t w, int64_t y,
                       const float* taps, int64_t radius, double* acc,
                       float* out);

/// Sobel gradient magnitude over the trailing two dimensions, with the same
/// 1/8-scaled kernels as the differentiable autograd op. Border handling:
/// zero padding.
Tensor sobel_magnitude(const Tensor& input);

/// Min-max normalizes each trailing-2-D plane independently to [0, 1];
/// constant planes map to all zeros.
Tensor normalize_planes(const Tensor& input);

/// Box-downsamples the trailing two dimensions by integer `factor` (plane
/// extents must be divisible by it).
Tensor downsample(const Tensor& input, int64_t factor);

}  // namespace roadfusion::vision
