// Cache-blocked, register-tiled GEMM — the fp32 kernel behind every
// autograd conv GEMM (forward and backward).
//
// The classic three-level blocking scheme (BLIS/GotoBLAS style): the
// operands are cut into Mc x Kc and Kc x Nc blocks that fit the cache
// hierarchy, each block is packed into contiguous panels, and a small
// register-tiled micro-kernel (kMr x kNr accumulators) does the arithmetic
// with no C traffic inside the K loop. The accumulators start from C, so
// each output is one sequential chain over all of K: the blocking changes
// speed, never bits. Strided views let one macro-kernel
// serve all three GEMM forms the convolution ops need (A*B, A^T*B, A*B^T)
// without materializing transposes. Every GEMM runs on the calling thread.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace roadfusion::autograd::kernels {

using tensor::Tensor;

/// Cache-blocking parameters of the blocked GEMM. Defaults are sized for
/// the small-M / long-N GEMMs produced by im2col on this repository's
/// encoder shapes (M = Cout <= 64, K = Cin*K*K <= a few hundred,
/// N = Ho*Wo up to a few thousand): Kc covers a whole 3x3 reduction in one
/// block and Nc keeps B streaming panel-by-panel through L1. No value
/// changes a result bit; tests shrink the blocks to exercise their edges.
struct BlockedGemmConfig {
  int64_t mc = 128;  ///< rows of A packed per block (L2 resident)
  int64_t kc = 384;  ///< reduction depth per block (panel height)
  int64_t nc = 4096; ///< columns of B per block (streamed in kNr panels)
};

/// Mutable process-wide blocking configuration. Mutate only while no GEMM
/// is in flight (tests and benches tune it between runs); concurrent reads
/// are safe.
BlockedGemmConfig& blocked_gemm_config();

/// C = A * B with A (m, k), B (k, n), both row-major.
Tensor blocked_matmul(const Tensor& a, const Tensor& b);

/// Same product accumulated into the caller's row-major (m, n) buffer `c`
/// (each output's chain starts from its value in `c`), so a zero-filled
/// `c` receives exactly blocked_matmul's bits without a temporary.
void blocked_matmul_into(const Tensor& a, const Tensor& b, float* c);

/// C = A^T * B with A stored (k, m), B (k, n).
Tensor blocked_matmul_at(const Tensor& a, const Tensor& b);

/// C = A * B^T with A (m, k), B stored (n, k).
Tensor blocked_matmul_bt(const Tensor& a, const Tensor& b);

}  // namespace roadfusion::autograd::kernels
