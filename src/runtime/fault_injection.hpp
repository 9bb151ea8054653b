// Deterministic fault injection for the serving runtime.
//
// A seeded FaultInjector decides — reproducibly, from (seed, request
// index) — whether a request carries a fault and which kind, then either
// corrupts the request's tensors before submission (input faults) or arms
// an engine-side fault consumed by the worker's pre-forward hook (slow
// batches, throwing forwards). The same spec string therefore replays the
// same fault sequence in a stress test, the throughput bench
// (`bench_throughput --fault-rate`) and the CLI
// (`batch-infer --inject-faults=SPEC`).
//
// Spec grammar (comma-separated key=value pairs):
//   rate=0.1            fraction of requests faulted (required to inject)
//   seed=7              RNG seed (default 0x5eedfa17)
//   slow-ms=20          sleep of a slow batch, milliseconds
//   kinds=nan+scanline+shape+stride+slow+throw
//                       '+'-separated subset (default: all kinds)
// Example: "rate=0.1,seed=7,kinds=nan+slow"
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace roadfusion::runtime {

/// The fault taxonomy the harness can inject.
enum class FaultKind {
  kNanDepth,         ///< rectangular NaN block in the depth image
  kScanlineDropout,  ///< zeroes most depth scanlines (dead LiDAR region)
  kBadShape,         ///< ill-shaped depth — rejected at submit
  kIndivisibleShape, ///< geometry passing health checks but failing the
                     ///< network stride — rejected at submit
  kSlowBatch,        ///< armed hook: the next forward sleeps slow-ms
  kThrowingForward,  ///< armed hook: the next forward throws
};

const char* to_string(FaultKind kind);

/// Parsed fault-injection configuration.
struct FaultSpec {
  double rate = 0.0;  ///< per-request fault probability
  uint64_t seed = 0x5eedfa17ULL;
  int64_t slow_batch_ms = 20;
  /// Kinds drawn from (uniformly); empty never faults.
  std::vector<FaultKind> kinds = {
      FaultKind::kNanDepth,         FaultKind::kScanlineDropout,
      FaultKind::kBadShape,         FaultKind::kIndivisibleShape,
      FaultKind::kSlowBatch,        FaultKind::kThrowingForward,
  };
};

/// Parses the spec grammar above. Throws roadfusion::Error on unknown
/// keys or kinds.
FaultSpec parse_fault_spec(const std::string& text);

/// What an armed kThrowingForward fault throws inside the worker (the
/// engine wraps it into InferenceError like any other forward failure).
class InjectedFaultError : public Error {
 public:
  explicit InjectedFaultError(const std::string& what) : Error(what) {}
};

/// Seeded fault source. `draw()` is called once per request on the
/// producer side; `engine_hook()` returns a callable for
/// EngineConfig::pre_forward_hook that consumes armed slow/throw faults.
/// Thread-safe: producers and workers may overlap.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec);

  /// Decides the fate of the next request: nullopt = clean, otherwise the
  /// fault kind to apply. Deterministic in (seed, call index).
  std::optional<FaultKind> draw();

  /// Applies an input fault to the request pair in place (kNanDepth,
  /// kScanlineDropout, kBadShape, kIndivisibleShape) or arms an
  /// engine-side fault (kSlowBatch, kThrowingForward).
  void apply(FaultKind kind, tensor::Tensor& rgb, tensor::Tensor& depth);

  /// Hook for EngineConfig::pre_forward_hook: consumes one armed throw
  /// (throws InjectedFaultError) or one armed sleep per call, in that
  /// order; no-op when nothing is armed.
  std::function<void(size_t)> engine_hook();

  const FaultSpec& spec() const { return spec_; }

  /// Requests drawn / faulted so far (telemetry for benches).
  uint64_t drawn() const;
  uint64_t faulted() const;

 private:
  void arm(FaultKind kind);

  FaultSpec spec_;
  mutable std::mutex mutex_;
  tensor::Rng rng_;
  uint64_t drawn_ = 0;
  uint64_t faulted_ = 0;
  int armed_slow_ = 0;
  int armed_throw_ = 0;
};

}  // namespace roadfusion::runtime
