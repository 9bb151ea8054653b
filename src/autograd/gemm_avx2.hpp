// AVX2 micro-kernels — the kAvx2 dispatch tier (DESIGN.md §16).
//
// One kernel, registered as a solver in src/tune behind the runtime CPUID
// probe (common/cpu.hpp):
//
//  * fp32 `avx2_gemm_infer`: a 16x6 FMA register tile (12 YMM
//    accumulators + 2 B loads + 1 A broadcast = 15 of the 16 YMM
//    registers). FMA contracts the multiply-add, so results differ from
//    the SSE2/scalar kernels within the usual reassociation tolerance —
//    this kernel backs the `blocked_avx2` solver, which never wins the
//    heuristic and must be selected explicitly (perf DB record, tuning,
//    or ROADFUSION_SOLVER), keeping default-path numerics bit-stable.
//
// The implementation TU is compiled with -mavx2 -mfma (see
// src/autograd/CMakeLists.txt). To keep that safe on pre-AVX2 machines,
// the TU must not instantiate inline code other TUs also instantiate
// (the linker keeps one ODR copy, possibly the AVX2 one) — hence this
// header takes raw pointers only and includes nothing heavyweight.
// Every entry point is stubbed to abort when the compiler could not
// target AVX2; `avx2_kernels_compiled()` lets the solver layer gate
// applicability without ifdefs at call sites.
#pragma once

#include <cstdint>

#include "autograd/conv_epilogue.hpp"

namespace roadfusion::autograd::kernels {

/// True when this binary contains the AVX2 code paths at all (compile-time
/// capability; whether they may EXECUTE is common::active_tier()).
bool avx2_kernels_compiled();

/// Register-tile row height of the AVX2 fp32 kernel (the A-pack granule).
inline constexpr int64_t kAvx2TileRows = 6;

/// Floats of A-pack storage `avx2_gemm_infer` needs for an (m, k) A
/// operand: rows rounded up to the 6-row tile.
int64_t avx2_apack_floats(int64_t m, int64_t k);

/// fp32 inference GEMM: C(m, n) = A(m, k) * B(k, n) by OVERWRITE with the
/// optional fused epilogue, FMA accumulation. A is row-major (lda == k)
/// and is packed per call into 6-row reduction-major panels inside
/// `apack` (>= avx2_apack_floats(m, k) floats, caller-provided so the
/// solver can draw it from the workspace arena). B is addressed raw with
/// row stride `ldb` (direct streaming, no pack); C has row stride `ldc`.
void avx2_gemm_infer(const float* a, int64_t m, int64_t k, float* apack,
                     const float* b, int64_t ldb, int64_t n, float* c,
                     int64_t ldc, const ConvEpilogue* epi);

}  // namespace roadfusion::autograd::kernels
