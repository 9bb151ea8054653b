// Cache-blocked, register-tiled GEMM — the fp32 kernel family behind the
// "blocked" solvers and the autograd conv GEMMs.
//
// The classic three-level blocking scheme (BLIS/GotoBLAS style): the
// operands are cut into Mc x Kc and Kc x Nc blocks that fit the cache
// hierarchy, each block is packed into contiguous panels, and a small
// register-tiled micro-kernel (kMr x kNr accumulators) does the arithmetic
// with no C traffic inside the K loop. Strided views let one macro-kernel
// serve all three GEMM forms the convolution ops need (A*B, A^T*B, A*B^T)
// without materializing transposes. Every GEMM runs on the calling thread.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/conv_epilogue.hpp"
#include "tensor/tensor.hpp"

namespace roadfusion::autograd::kernels {

using tensor::Tensor;

/// Cache-blocking parameters of the blocked GEMM. Defaults are sized for
/// the small-M / long-N GEMMs produced by im2col on this repository's
/// encoder shapes (M = Cout <= 64, K = Cin*K*K <= a few hundred,
/// N = Ho*Wo up to a few thousand): Kc covers a whole 3x3 reduction in one
/// block and Nc keeps B streaming panel-by-panel through L1.
struct BlockedGemmConfig {
  int64_t mc = 128;  ///< rows of A packed per block (L2 resident)
  int64_t kc = 384;  ///< reduction depth per block (panel height)
  int64_t nc = 4096; ///< columns of B per block (streamed in kNr panels)
};

/// Mutable process-wide blocking configuration. Mutate only while no GEMM
/// is in flight (tests and benches tune it between runs); concurrent reads
/// are safe.
BlockedGemmConfig& blocked_gemm_config();

/// Register-tile row height of the micro-kernel; the blocked solvers apply
/// only when M covers at least one tile.
inline constexpr int64_t kMicroTileRows = 4;

/// C = A * B with A (m, k), B (k, n), both row-major.
Tensor blocked_matmul(const Tensor& a, const Tensor& b);

/// Same, under an explicit blocking configuration instead of the process
/// global — the solver registry runs per-shape tuned Mc/Kc/Nc
/// through this without mutating state other callers read.
Tensor blocked_matmul(const Tensor& a, const Tensor& b,
                      const BlockedGemmConfig& config);

/// C = A^T * B with A stored (k, m), B (k, n).
Tensor blocked_matmul_at(const Tensor& a, const Tensor& b);

/// C = A * B^T with A (m, k), B stored (n, k).
Tensor blocked_matmul_bt(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Inference fast path: pre-packed A operands and fused conv epilogues.
// ---------------------------------------------------------------------------

// ConvEpilogue moved to autograd/conv_epilogue.hpp (shared with the
// per-ISA kernel TUs); included above so existing consumers are unchanged.

/// An A operand packed once into the blocked GEMM's kMr-row panel layout
/// (reduction-major, zero-padded rows) — what `pack_a` produces per cache
/// block, hoisted out of the hot loop entirely. Only valid for operands
/// that the blocked loop would cover in a single (Mc, Kc) block; see
/// `prepack_viable`.
struct PackedA {
  std::vector<float> panels;  ///< round_up(m, kMr) x k packed floats
  int64_t m = 0;
  int64_t k = 0;
};

/// True when an (m, k) A operand fits a single cache block of the current
/// blocking config — the precondition for `prepack_a` / `gemm_prepacked`
/// producing bits identical to the general blocked loop.
bool prepack_viable(int64_t m, int64_t k);

/// Packs a strided (m, k) A view into panel layout (one-time, load-path
/// cost; traced as "gemm.prepack"). `row_stride`/`col_stride` address the
/// source like MatView, so a transposed weight view packs without an
/// intermediate copy.
PackedA prepack_a(const float* a, int64_t row_stride, int64_t col_stride,
                  int64_t m, int64_t k);

/// C = A * B with a pre-packed A and row-major B ((k, n), row stride
/// `ldb`), writing C (row stride `ldc`) by OVERWRITE — C need not be
/// zeroed and is touched exactly once per element. `epi`, when non-null,
/// is applied to each C tile while it still sits in registers. Requires
/// the single-block precondition of `prepack_viable`; bit-identical to
/// blocked_matmul followed by `apply_epilogue`.
void gemm_prepacked(const PackedA& a, const float* b, int64_t ldb, int64_t n,
                    float* c, int64_t ldc, const ConvEpilogue* epi);

/// Standalone epilogue pass over a row-major (m, n) C — the reference /
/// fallback counterpart of the fused store, same per-element op sequence.
void apply_epilogue(float* c, int64_t m, int64_t n, const ConvEpilogue& epi);

}  // namespace roadfusion::autograd::kernels
