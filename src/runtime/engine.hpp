// InferenceEngine: the batched multi-threaded serving runtime.
//
//   submit()            worker pool (N threads)
//      │                     │
//      ▼                     ▼
//   SensorHealth check   BoundedQueue ──► pop_batch (micro-batcher: up to
//   (reject invalid,     (backpressure)   max_batch compatible requests,
//    flag degraded)                       max_wait_us straggler window)
//                                             │ expire deadlines
//                                             ▼
//                collate CHW → (N, C, H, W) ──► model.predict[_fused] ──►
//                split into per-request std::future<InferenceResult>
//
// Correctness contract: because every kernel in this repository processes
// batch elements independently (convolutions loop per sample, batch norm
// in eval mode uses per-channel running statistics), a batched forward is
// bit-identical per scene to a sequential `predict` — the golden test in
// tests/test_runtime_engine.cpp pins this down with exact equality.
//
// Fault tolerance (see DESIGN.md §9): malformed requests are rejected at
// submit with InvalidInputError; requests with unhealthy-but-present
// depth are served RGB-only through the fusion_weight = 0 path and
// flagged `degraded`; a forward-pass failure fails only its own batch's
// futures with InferenceError while the worker keeps serving; expired
// per-request deadlines resolve with DeadlineExceededError. Every
// accepted future resolves — with a value or a typed error — under both
// shutdown modes.
//
// Thread-safety: `SegmentationModel::forward` is const and touches no
// shared mutable state in eval mode, so workers run batches concurrently
// over one shared model. The engine forces eval mode at construction.
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "kitti/sensor_health.hpp"
#include "obs/metrics.hpp"
#include "roadseg/segmentation_model.hpp"
#include "runtime/request_queue.hpp"
#include "runtime/stats.hpp"
#include "tensor/tensor.hpp"

namespace roadfusion::runtime {

/// Thrown by submit() when the queue is full under the reject policy.
class QueueFullError : public Error {
 public:
  explicit QueueFullError(const std::string& what) : Error(what) {}
};

/// Thrown by submit() after shutdown began.
class EngineStoppedError : public Error {
 public:
  explicit EngineStoppedError(const std::string& what) : Error(what) {}
};

/// Set on a pending request's future by a cancel-mode shutdown.
class RequestCancelledError : public Error {
 public:
  explicit RequestCancelledError(const std::string& what) : Error(what) {}
};

/// Thrown by submit() when the sensor health check classifies the
/// request as unservable (malformed shapes, non-finite RGB) or the model
/// cannot run its geometry (SegmentationModel::check_inputs).
class InvalidInputError : public Error {
 public:
  explicit InvalidInputError(const std::string& what) : Error(what) {}
};

/// Set on a request's future when its queue wait exceeded the deadline
/// before a worker picked it up.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what) : Error(what) {}
};

/// Set on every future of a batch whose forward pass threw; wraps the
/// underlying failure message. The worker survives and keeps serving.
class InferenceError : public Error {
 public:
  explicit InferenceError(const std::string& what) : Error(what) {}
};

/// What submit() does when the queue is at capacity.
enum class OverflowPolicy {
  kBlock,   ///< wait for space (backpressure propagates to the producer)
  kReject,  ///< fail fast with QueueFullError
};

/// How shutdown treats requests still in the queue.
enum class ShutdownMode {
  kDrain,   ///< serve everything already accepted, then stop
  kCancel,  ///< fail pending futures with RequestCancelledError, then stop
};

/// Engine knobs.
struct EngineConfig {
  int threads = 1;            ///< worker threads executing batched forwards
  int max_batch = 4;          ///< max requests collated into one forward
  int64_t max_wait_us = 200;  ///< straggler window once a batch has a head
  size_t queue_capacity = 64;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Thresholds of the sensor health check every submit runs: invalid
  /// requests throw InvalidInputError, degraded ones serve RGB-only.
  kitti::SensorHealthConfig health;
  /// Deadline applied to requests submitted without an explicit one;
  /// 0 means no deadline.
  int64_t default_deadline_ms = 0;
  /// Test / fault-injection seam: invoked by the serving worker right
  /// before each batched forward with the live batch size. May sleep
  /// (slow-batch faults) or throw (the throw fails that batch's futures
  /// exactly like a model failure). Leave empty in production.
  std::function<void(size_t)> pre_forward_hook;
};

/// Per-request submit options.
struct SubmitOptions {
  /// Queue-wait budget in milliseconds; a request still queued past this
  /// resolves with DeadlineExceededError. 0 inherits
  /// EngineConfig::default_deadline_ms; negative disables the deadline
  /// for this request.
  int64_t deadline_ms = 0;
  /// Serve RGB-only (fusion_weight = 0) even when depth is healthy — the
  /// brownout ladder's capacity lever (DESIGN.md §14). The response is
  /// flagged `degraded` exactly like a health-triggered degradation.
  bool force_degraded = false;
  /// Scenario label (e.g. "fog", "dropout") for per-scenario metric and
  /// trace slicing: accepted requests bump
  /// roadfusion_scenario_requests_total{scenario="..."} (and
  /// roadfusion_scenario_degraded_total when served RGB-only), and the
  /// serving worker stamps an `engine.scenario.<label>` trace event.
  /// Empty disables both.
  std::string scenario;
  /// Cross-frame depth-feature cache for streaming sessions. Owned by the
  /// caller and must outlive the request; a non-null cache makes the
  /// request a singleton batch (never collated with others), and the
  /// caller must serialize submits sharing one cache — a stream session
  /// is inherently one-frame-at-a-time.
  roadseg::StreamFeatureCache* stream_cache = nullptr;
  /// With stream_cache set: promise that `depth` is bitwise-identical to
  /// the depth of the frame that last populated the cache, enabling the
  /// depth-encoder skip. Ignored without a cache.
  bool depth_unchanged = false;
};

/// What a fulfilled future carries.
struct InferenceResult {
  tensor::Tensor output;  ///< (1, H, W) road-probability tensor
  /// True when depth was flagged unhealthy and the scene was served
  /// RGB-only (fusion_weight = 0).
  bool degraded = false;
};

/// Batched multi-threaded inference runtime over one segmentation model.
class InferenceEngine {
 public:
  /// Takes shared ownership of nothing: `model` must outlive the engine.
  /// Switches the model to eval mode (inference must not update batch-norm
  /// running statistics, and eval mode is what makes concurrent forwards
  /// safe).
  InferenceEngine(roadseg::SegmentationModel& model,
                  const EngineConfig& config);

  /// Drains and joins (shutdown(kDrain)) unless already shut down.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Submits one scene. rgb: (3, H, W); depth: (C_d, H, W). The future
  /// yields the (1, H, W) road-probability tensor, bit-identical to
  /// `model.predict(rgb, depth)` (or `predict_fused(..., 0)` when the
  /// result is flagged degraded). Throws InvalidInputError (health check
  /// rejected the pair, or the model cannot run its geometry, e.g. H or W
  /// not a multiple of the network stride), QueueFullError (reject policy, queue full) or
  /// EngineStoppedError (after shutdown).
  std::future<InferenceResult> submit(tensor::Tensor rgb,
                                      tensor::Tensor depth,
                                      const SubmitOptions& options = {});

  /// Stops the engine. kDrain serves every accepted request first; kCancel
  /// fails still-queued requests deterministically (every future then
  /// holds either a value or a RequestCancelledError). Idempotent.
  void shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Consistent metrics snapshot; callable at any time, including after
  /// shutdown.
  RuntimeStats stats() const { return stats_.snapshot(); }

  /// Requests currently queued (not yet popped into a batch). The front
  /// door's routing and pressure signals poll this; it is a point-in-time
  /// sample, racy by nature.
  size_t queue_depth() const { return queue_.size(); }

  /// p99 queue wait over the most recent window of popped requests,
  /// milliseconds — the observed half of the front door's brownout
  /// pressure signal (cheap: fixed window, no full snapshot).
  double recent_queue_wait_p99_ms() const {
    return stats_.recent_queue_wait_p99_ms();
  }

  const EngineConfig& config() const { return config_; }

 private:
  struct Request {
    tensor::Tensor rgb;    // (C, H, W)
    tensor::Tensor depth;  // (C_d, H, W)
    std::promise<InferenceResult> result;
    std::chrono::steady_clock::time_point enqueue_time;
    std::chrono::steady_clock::time_point deadline;
    /// obs::now_us() at submit, stamped only while tracing is enabled
    /// (0 otherwise); lets serve_batch emit `engine.queue_wait` spans on
    /// the tracing clock (real or virtual).
    int64_t trace_submit_us = 0;
    bool has_deadline = false;
    bool degraded = false;  // serve RGB-only (fusion_weight = 0)
    std::string scenario;   // metric/trace slicing label; empty disables
    roadseg::StreamFeatureCache* stream_cache = nullptr;
    bool depth_unchanged = false;
  };

  void worker_loop();
  void serve_batch(std::vector<Request>& batch);

  /// Cached `family{scenario="..."}` counter lookup (registry lookups
  /// rebuild label strings and take the registry-wide lock).
  obs::Counter& scenario_counter(const std::string& family,
                                 const std::string& scenario);

  const roadseg::SegmentationModel& model_;
  EngineConfig config_;
  BoundedQueue<Request> queue_;
  StatsCollector stats_;
  std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;
  std::mutex scenario_mutex_;
  std::map<std::string, obs::Counter*> scenario_counters_;
};

}  // namespace roadfusion::runtime
