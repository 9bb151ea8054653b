// FrontDoor: the overload-safe fleet serving layer (DESIGN.md §14).
//
//   submit(rgb, depth, {tenant, priority, key})
//      │
//      ▼
//   token-bucket admission (per tenant) ──reject──► RetryAfterError
//      │                                            {kRateLimited}
//      ▼
//   brownout ladder (hysteresis over queue-wait pressure)
//      tier 0: serve as requested
//      tier 1: low-priority forced onto the degraded RGB-only path
//      tier 2: low-priority shed ──────────────────► RetryAfterError
//              everyone else forced degraded        {kOverloaded}
//      │
//      ▼
//   shard router: consistent hash(key) → primary, power-of-two-choices
//   spill to the alternate when the primary's queue is deeper by the
//   spill margin; a full shard falls over to the alternate, and a second
//   full queue surfaces as RetryAfterError{kOverloaded} — no raw
//   QueueFullError ever escapes the front door.
//
// Pressure signal: max( depth-derived estimated wait
//                         (queued / (shards × max_batch) × est batch ms),
//                       max over shards of observed recent queue-wait p99 ).
// The depth term reacts within one request of a burst; the observed term
// grounds the estimate in measured reality once batches start popping.
//
// Every decision is surfaced through the PR 4 metrics registry
// (roadfusion_frontdoor_* counters with tenant/tier labels, tier gauge,
// queue-depth gauge summed over every live door) and the span tracer (frontdoor.submit spans,
// frontdoor.tier[0-2] transition events). Timestamps come from the
// injectable obs::Clock, so tier transitions are deterministic under a
// VirtualClock (tests/test_frontdoor).
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "serve/brownout.hpp"
#include "serve/errors.hpp"
#include "serve/token_bucket.hpp"

namespace roadfusion::serve {

struct FrontDoorConfig {
  /// Engine shards. Each shard owns its own queue and worker pool over
  /// the one shared model.
  int shards = 2;
  /// Per-shard engine knobs. `overflow` is forced to kReject: blocking a
  /// submitter is exactly the failure mode the front door exists to
  /// prevent (the spill/shed path answers instead).
  runtime::EngineConfig engine;
  /// Admission control: tenants without an override get the default;
  /// rate_per_s <= 0 means unlimited.
  TenantLimits default_limits;
  std::map<std::string, TenantLimits> tenant_limits;
  BrownoutConfig brownout;
  /// Estimated service time of one full batch, milliseconds — scales the
  /// depth-derived pressure term. Calibrate from a measured per-scene
  /// latency (bench_soak does); the observed queue-wait p99 corrects any
  /// estimation error once traffic flows.
  double est_batch_service_ms = 50.0;
  /// Queue-depth advantage (in requests) the alternate shard must have
  /// before a request spills off its consistent primary.
  size_t spill_margin = 4;
};

/// Per-request serving options.
struct ServeOptions {
  std::string tenant = "default";
  /// Low-priority requests are the brownout ladder's first target: forced
  /// degraded at tier 1, shed at tier 2.
  bool low_priority = false;
  /// Routing affinity key: requests sharing a key route to the same
  /// primary shard (stream / camera affinity). 0 derives the key from the
  /// tenant name.
  uint64_t route_key = 0;
  /// Per-request deadline; 0 inherits the shard engine's default.
  int64_t deadline_ms = 0;
  /// Scenario label forwarded to the shard engine for per-scenario metric
  /// and trace slicing (roadfusion_scenario_* counters). Empty disables.
  std::string scenario;
  /// Streaming passthrough (see runtime::SubmitOptions): a caller-owned
  /// cross-frame depth-feature cache and the promise that this frame's
  /// depth is bitwise-unchanged since the cache was populated. Stream
  /// sessions should also set `route_key` so every frame lands on the
  /// same shard.
  roadseg::StreamFeatureCache* stream_cache = nullptr;
  bool depth_unchanged = false;
};

/// Point-in-time front-door totals (see also the registry counters).
struct FrontDoorStats {
  uint64_t submitted = 0;      ///< submit() calls, before any gate
  uint64_t admitted = 0;       ///< handed to a shard queue
  uint64_t rate_limited = 0;   ///< RetryAfterError{kRateLimited}
  uint64_t shed = 0;           ///< tier-2 RetryAfterError{kOverloaded}
  uint64_t shard_full = 0;     ///< both candidates full → kOverloaded
  uint64_t forced_degraded = 0;  ///< brownout forced RGB-only
  uint64_t spills = 0;         ///< p2c routed off the consistent primary
  int tier = 0;
  std::array<uint64_t, kTierCount> tier_entries{};
  uint64_t queue_depth = 0;    ///< sampled sum across shards
  /// Aggregated shard engine stats: counters summed; p50/p99 latency are
  /// the max across shards (conservative), mean weighted by served.
  runtime::RuntimeStats engine;
  std::vector<runtime::RuntimeStats> shards;
};

/// Picks a shard: `primary` is the consistent choice for the hash; the
/// alternate (a second independent hash) wins only when its queue is
/// shallower by more than `spill_margin`. Pure — unit-tested directly.
/// Returns {shard_index, spilled}.
std::pair<size_t, bool> pick_shard(uint64_t hash,
                                   const std::vector<size_t>& depths,
                                   size_t spill_margin);

class FrontDoor {
 public:
  /// `model` must outlive the front door (shards share it read-only).
  FrontDoor(roadseg::SegmentationModel& model, const FrontDoorConfig& config);

  /// Drains and joins all shards unless already shut down.
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Admission control + brownout ladder + sharded submit. Throws
  /// RetryAfterError (rate-limited, shed, or all candidate shards full)
  /// and propagates the shard engine's InvalidInputError /
  /// EngineStoppedError unchanged.
  std::future<runtime::InferenceResult> submit(tensor::Tensor rgb,
                                               tensor::Tensor depth,
                                               const ServeOptions& options);

  /// Current brownout tier (point-in-time).
  int tier() const;

  /// Sum of shard queue depths (point-in-time sample).
  size_t queue_depth() const;

  /// Current pressure estimate, milliseconds (what the next submit's
  /// ladder observation would see) — introspection/test hook.
  double pressure_ms() const;

  FrontDoorStats stats() const;

  void shutdown(runtime::ShutdownMode mode = runtime::ShutdownMode::kDrain);

  const FrontDoorConfig& config() const { return config_; }
  size_t shard_count() const { return engines_.size(); }
  runtime::InferenceEngine& shard(size_t index) { return *engines_[index]; }

 private:
  obs::Counter& labeled_counter(const std::string& family,
                                const std::string& tenant, int tier);
  /// Ladder observation for one submit; returns the tier in force and
  /// publishes transition metrics/spans.
  int observe_tier(int64_t now_us);

  FrontDoorConfig config_;
  std::vector<std::unique_ptr<runtime::InferenceEngine>> engines_;
  TokenBucketTable buckets_;

  mutable std::mutex mutex_;  ///< controller + totals + counter cache
  BrownoutController controller_;
  FrontDoorStats totals_;
  std::map<std::string, obs::Counter*> counter_cache_;

  obs::Gauge& tier_gauge_;
  bool shut_down_ = false;
};

}  // namespace roadfusion::serve
