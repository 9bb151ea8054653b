#include "common/cpu.hpp"

#include <atomic>
#include <cstring>

#include "common/env.hpp"

namespace roadfusion::common {
namespace {

CpuTier probe_hardware() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return CpuTier::kAvx2;
  }
  // SSE2 is architectural on x86-64, but keep the probe honest.
  if (__builtin_cpu_supports("sse2")) {
    return CpuTier::kSse2;
  }
  return CpuTier::kScalar;
#else
  return CpuTier::kSse2;  // x86-64 baseline
#endif
#else
  return CpuTier::kScalar;
#endif
}

/// The active tier, initialized once from hardware ∧ env.
std::atomic<int>& active_slot() {
  static std::atomic<int> slot{[] {
    CpuTier tier = detected_tier();
    const std::string forced = env_string("ROADFUSION_CPU_FEATURES", "");
    CpuTier parsed;
    if (!forced.empty() && parse_tier(forced.c_str(), parsed) &&
        parsed < tier) {
      tier = parsed;
    }
    return static_cast<int>(tier);
  }()};
  return slot;
}

}  // namespace

CpuTier detected_tier() {
  static const CpuTier tier = probe_hardware();
  return tier;
}

CpuTier active_tier() {
  return static_cast<CpuTier>(active_slot().load(std::memory_order_relaxed));
}

void set_active_tier(CpuTier tier) {
  if (tier > detected_tier()) {
    tier = detected_tier();
  }
  active_slot().store(static_cast<int>(tier), std::memory_order_relaxed);
}

const char* tier_name(CpuTier tier) {
  switch (tier) {
    case CpuTier::kScalar:
      return "scalar";
    case CpuTier::kSse2:
      return "sse2";
    case CpuTier::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool parse_tier(const char* name, CpuTier& out) {
  if (std::strcmp(name, "scalar") == 0) {
    out = CpuTier::kScalar;
    return true;
  }
  if (std::strcmp(name, "sse2") == 0) {
    out = CpuTier::kSse2;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    out = CpuTier::kAvx2;
    return true;
  }
  return false;
}

}  // namespace roadfusion::common
