// AVX2 lane kernels for the NCHWc8 direct and transposed convolutions
// (DESIGN.md §16).
//
// ODR ground rules: a TU compiled with wider ISA flags must not instantiate
// inline code that other TUs also instantiate, or the linker may keep the
// AVX2 copy and crash pre-AVX2 machines. So this header stays free of
// heavyweight includes, and the implementation TU is the only file in the
// tree compiled with -mavx2 (and deliberately WITHOUT -mfma: the
// kernel uses separate mul+add intrinsics so every lane reproduces the
// scalar accumulation chain bit-for-bit — a fused multiply-add would keep
// the infinite-precision intermediate and change the last bits).
#pragma once

#include <cstdint>

namespace roadfusion::plan {

/// Raw-pointer operand block for the AVX2 kernel; mirrors the PackedConv
/// fields conv_nchwc() consumes, flattened so this header needs nothing
/// from plan/ir.hpp.
struct NchwcConvArgs {
  const float* src = nullptr;
  int64_t n = 0;
  int64_t in_h = 0;
  int64_t in_w = 0;
  int64_t cin = 0;
  int64_t cout = 0;
  int64_t kernel = 1;
  int64_t stride = 1;
  const float* w = nullptr;        // [ocb][cin][k][k][8]
  const float* bias = nullptr;     // lane-padded per-cout, or null
  const float* bn_mean = nullptr;  // lane-padded eval-BN params, or null
  const float* bn_invstd = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  bool relu = false;
  float* dst = nullptr;
  int64_t out_h = 0;
  int64_t out_w = 0;
  const float* pre = nullptr;   // residual shortcut, output geometry
  const float* post = nullptr;  // cross-layer fusion addend
  float fusion_weight = 1.0f;
};

/// The AVX2 direct conv's register tile: `blocks` output channel blocks
/// x `cols` output columns of one output row, blocks * cols accumulators.
struct NchwcTile {
  int64_t blocks = 1;
  int64_t cols = 1;
};

/// The tile conv_nchwc_avx2 runs for a kernel size and cout, either
/// stride (DESIGN.md §16). Defined in nchwc.cpp, outside this ISA-flagged
/// TU, so --explain-plan can report it on any host.
NchwcTile nchwc_avx2_tile(int64_t kernel, int64_t cout);

/// Runs the blocked direct conv with 8-lane AVX2 vectors on the sliding
/// window tile nchwc_avx2_tile picks: each input column is broadcast once
/// per (ic, ky) and feeds every output column of the tile it touches.
/// Returns false when this binary was built without AVX2 support or the
/// kernel size is not 1 or 3; the caller must then use the scalar kernel.
/// The caller is responsible for the runtime CPUID gate.
bool conv_nchwc_avx2(const NchwcConvArgs& args);

/// The 2x2 / stride-2 transposed-conv analogue (`w` packed
/// [ocb][cin][ky][kx][8]; epilogue 0 + acc -> +bias -> +pre; the BN, ReLU
/// and post fields are ignored). Returns false when this binary was built
/// without AVX2 support.
bool tconv_nchwc_avx2(const NchwcConvArgs& args);

}  // namespace roadfusion::plan
