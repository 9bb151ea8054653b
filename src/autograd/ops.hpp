// Differentiable operations over autograd Variables.
//
// Every function builds the forward value eagerly and records a backward
// closure on the tape. This is the complete op vocabulary needed by the
// RoadFusion networks: convolutions (via im2col), transposed convolutions,
// batch norm, pooling, linear layers, elementwise math, the differentiable
// Sobel edge extractor that powers the Feature Disparity loss, and the
// training losses.
#pragma once

#include <memory>

#include "autograd/kernels.hpp"
#include "autograd/variable.hpp"

namespace roadfusion::autograd {

using kernels::ConvGeometry;

// ---------------------------------------------------------------------------
// Elementwise / structural ops
// ---------------------------------------------------------------------------

/// Elementwise a + b (same shape).
Variable add(const Variable& a, const Variable& b);

/// Elementwise a - b (same shape).
Variable sub(const Variable& a, const Variable& b);

/// Elementwise a * b (same shape).
Variable mul(const Variable& a, const Variable& b);

/// a * s for a constant scalar s.
Variable scale(const Variable& a, float s);

/// max(x, 0).
Variable relu(const Variable& x);

/// Logistic sigmoid.
Variable sigmoid(const Variable& x);

/// Reinterprets the value with a new shape of identical numel.
Variable reshape(const Variable& x, const Shape& shape);

/// Stops gradient flow: returns a constant with the same value.
Variable detach(const Variable& x);

/// Per-sample scaling: x is NCHW, w holds one scalar per sample (shape (N)
/// or (N, 1)); returns y[n, ...] = w[n] * x[n, ...]. Differentiable in both
/// arguments — this is the Auxiliary Weight Network's fusion weighting.
Variable scale_per_sample(const Variable& x, const Variable& w);

// ---------------------------------------------------------------------------
// Neural network ops
// ---------------------------------------------------------------------------

/// 2-D convolution. x: (N, Cin, H, W); w: (Cout, Cin, K, K); b: (Cout) or an
/// undefined Variable for no bias. Zero padding per `geom`.
Variable conv2d(const Variable& x, const Variable& w, const Variable& b,
                const ConvGeometry& geom);

/// 2-D transposed convolution (fractionally-strided). x: (N, Cin, H, W);
/// w: (Cin, Cout, K, K); b: (Cout) or undefined. Output spatial extent is
/// geom.transposed_out_extent(input extent).
Variable conv_transpose2d(const Variable& x, const Variable& w,
                          const Variable& b, const ConvGeometry& geom);

/// Mutable running statistics owned by a BatchNorm2d module and updated as
/// a side effect of training-mode forward passes.
struct BatchNormState {
  Tensor running_mean;  ///< shape (C)
  Tensor running_var;   ///< shape (C)
};

/// Batch-norm epsilon every BatchNorm2d layer uses.
constexpr float kBatchNormEps = 1e-5f;

/// Eval-mode batch-norm factor 1 / sqrt(running_var + eps) — the one
/// formula batch_norm2d's eval branch and the inference plan's packed
/// epilogue both use, so their results agree to the bit.
float batch_norm_eval_invstd(float running_var, float eps = kBatchNormEps);

/// Batch normalization over (N, H, W) per channel. gamma/beta: shape (C).
/// In training mode batch statistics are used and `state` is updated with
/// momentum; in eval mode the running statistics are used.
Variable batch_norm2d(const Variable& x, const Variable& gamma,
                      const Variable& beta,
                      const std::shared_ptr<BatchNormState>& state,
                      bool training, float momentum = 0.1f,
                      float eps = kBatchNormEps);

/// Max pooling with square kernel/stride, no padding.
Variable max_pool2d(const Variable& x, int64_t kernel, int64_t stride);

/// Global average pooling: (N, C, H, W) -> (N, C).
Variable global_avg_pool(const Variable& x);

/// Fully connected layer. x: (N, K); w: (Out, K); b: (Out) or undefined.
Variable linear(const Variable& x, const Variable& w, const Variable& b);

// ---------------------------------------------------------------------------
// Edge extraction (Feature Disparity building block)
// ---------------------------------------------------------------------------

/// Differentiable Sobel edge-magnitude sketch, applied channel-wise:
/// e = sqrt(gx^2 + gy^2 + eps) with gx/gy the Sobel responses. This is the
/// edge operator E(.) of the paper's Eq. 1 in a differentiable form so the
/// Feature Disparity can also serve as a loss term (Eq. 3).
Variable sobel_edge(const Variable& x, float eps = 1e-8f);

// ---------------------------------------------------------------------------
// Reductions and losses
// ---------------------------------------------------------------------------

/// Mean over all elements -> scalar.
Variable mean_all(const Variable& x);

/// Sum over all elements -> scalar.
Variable sum_all(const Variable& x);

/// Numerically stable binary cross entropy on logits, averaged over all
/// elements. `targets` must be a constant (no gradient to targets).
Variable bce_with_logits(const Variable& logits, const Variable& targets);

/// Mean squared error between two same-shape Variables -> scalar.
Variable mse_loss(const Variable& a, const Variable& b);

}  // namespace roadfusion::autograd
