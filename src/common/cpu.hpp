// Runtime CPU feature detection and the process-wide dispatch tier.
//
// The SIMD kernels are compiled per-TU with the ISA flags they need
// (`-msse2` implied by x86-64, `-mavx2` for src/plan/nchwc_avx2.cpp),
// but whether they may EXECUTE is a property of the machine the binary
// lands on, not of the build host. This header is the single source of
// truth for that decision: a CpuTier probed once via the compiler's
// builtin CPUID support, clampable downward through the
// ROADFUSION_CPU_FEATURES environment variable ("scalar" | "sse2" |
// "avx2") so portability fallbacks are testable on any host.
//
// Consumers:
//  * the SSE2 micro-kernels in gemm.cpp gate their vector
//    path on `active_tier() >= CpuTier::kSse2` (the latent-portability
//    fix: previously the guard was compile-time only);
//  * the inference plan runs its AVX2 direct-conv kernels when
//    `active_tier() >= CpuTier::kAvx2`.
#pragma once

#include <cstdint>

namespace roadfusion::common {

/// Instruction-set tiers this repository dispatches across, ordered so
/// `>=` comparisons express capability. kAvx2 requires FMA in the probe
/// (every AVX2 part this targets has it; a machine with AVX2 but no FMA
/// probes as kSse2), though no kernel contracts a multiply-add.
enum class CpuTier : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Highest tier the hardware supports, probed once (CPUID via
/// __builtin_cpu_supports where available, else the compile-time floor).
CpuTier detected_tier();

/// The tier dispatch actually uses: `detected_tier()` clamped down by
/// ROADFUSION_CPU_FEATURES (read once at first call) or by
/// `set_active_tier`. Never exceeds the detected tier — forcing "avx2" on
/// an SSE2 machine silently yields sse2 rather than an illegal
/// instruction. One relaxed atomic load; hot-path safe.
CpuTier active_tier();

/// Test / tooling override: clamps the active tier to
/// `min(tier, detected_tier())`. Call only while no inference is in flight
/// (tests, CLI startup).
void set_active_tier(CpuTier tier);

/// Lower-case tier name ("scalar" | "sse2" | "avx2"), static storage.
const char* tier_name(CpuTier tier);

/// Parses a tier name (as accepted by ROADFUSION_CPU_FEATURES); returns
/// false on an unknown string, leaving `out` untouched.
bool parse_tier(const char* name, CpuTier& out);

}  // namespace roadfusion::common
