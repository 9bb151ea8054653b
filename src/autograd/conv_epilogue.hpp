// ConvEpilogue: the per-output-channel post-op descriptor of a conv — the
// graph conv's bias pass (gemm.hpp apply_epilogue), the eval-BN factors
// BatchNorm2d::fill_epilogue hands out, and what plan::pack_conv snapshots
// into the blocked kernels' lane-padded epilogue. Deliberately plain: no
// includes, no inline functions.
#pragma once

namespace roadfusion::autograd::kernels {

/// Per-output-channel epilogue fused into the GEMM's C store. The fields
/// are applied per element in exactly the order of the legacy op chain —
/// bias add, then eval-mode batch-norm affine, then ReLU — with the same
/// single-precision operation sequence, so the fused result is
/// bit-identical to running the separate ops. The channel index is the C
/// row. Null pointers skip a stage; the four bn_* arrays are set together.
struct ConvEpilogue {
  const float* bias = nullptr;       ///< v += bias[c]
  const float* bn_mean = nullptr;    ///< xh = (v - mean[c]) * invstd[c]
  const float* bn_invstd = nullptr;  ///< (invstd precomputed per channel)
  const float* bn_gamma = nullptr;   ///< v = gamma[c] * xh + beta[c]
  const float* bn_beta = nullptr;
  bool relu = false;                 ///< v = v > 0 ? v : 0
};

}  // namespace roadfusion::autograd::kernels
