// Runtime metrics: counters and latency distribution of the inference
// engine, exposed as immutable snapshots so callers never observe a
// half-updated view. Every recording additionally publishes into an
// obs::MetricsRegistry (the process-wide one by default), so the same
// numbers are scrapeable as Prometheus text via `roadfusion metrics-dump`
// — RuntimeStats snapshots stay per-engine, the registry aggregates
// across engines.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace roadfusion::runtime {

/// One consistent snapshot of the engine's lifetime metrics.
struct RuntimeStats {
  uint64_t requests_submitted = 0;  ///< accepted into the queue
  uint64_t requests_served = 0;     ///< futures fulfilled with a result
  uint64_t requests_degraded = 0;   ///< served RGB-only (depth unhealthy)
  uint64_t requests_failed = 0;     ///< futures failed by a forward error
  uint64_t requests_timed_out = 0;  ///< futures failed by deadline expiry
  uint64_t requests_cancelled = 0;  ///< futures failed by cancel shutdown
  uint64_t queue_full_rejections = 0;
  uint64_t invalid_input_rejections = 0;  ///< rejected at submit (health, geometry)
  uint64_t batches_formed = 0;

  /// Mean number of requests per formed batch (0 when no batch yet).
  double mean_batch_size = 0.0;

  /// Submit-to-completion latency over served requests, milliseconds:
  /// the exact mean, and p50/p99 interpolated within the buckets of
  /// latency_bucket_bounds_ms() (clamped to the observed min and max, so
  /// a single sample is its own percentile).
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;

  /// p99 queue wait over the most recent window of popped requests
  /// (kQueueWaitWindow samples), milliseconds — the observed half of the
  /// front door's brownout pressure signal (DESIGN.md §14).
  double recent_queue_wait_p99_ms = 0.0;

  /// Served requests per second of engine lifetime.
  double throughput_rps = 0.0;
  double elapsed_s = 0.0;
};

/// Fixed latency bucket bounds (milliseconds) of the engine's request
/// latency histogram in the metrics registry.
const std::vector<double>& latency_bucket_bounds_ms();

/// Samples in the recent queue-wait window behind
/// RuntimeStats::recent_queue_wait_p99_ms.
inline constexpr size_t kQueueWaitWindow = 128;

/// Thread-safe metrics accumulator feeding `RuntimeStats` snapshots.
class StatsCollector {
 public:
  /// Publishes into `registry` alongside the per-engine totals; defaults
  /// to the process-wide obs::MetricsRegistry::global().
  StatsCollector();
  explicit StatsCollector(obs::MetricsRegistry& registry);

  void record_submitted();
  void record_rejection();
  void record_invalid_input();
  void record_batch(size_t batch_size);
  void record_served(double latency_ms, bool degraded = false);
  void record_failed(size_t count);
  void record_timed_out(size_t count);
  void record_cancelled(size_t count);
  /// Queue wait of one popped request (served, expired or failed alike).
  void record_queue_wait(double wait_ms);

  /// p99 over the recent queue-wait window; cheap enough for the front
  /// door to poll on every submit (fixed-size copy, no full snapshot).
  double recent_queue_wait_p99_ms() const;

  /// Consistent copy of all metrics at this instant.
  RuntimeStats snapshot() const;

 private:
  mutable std::mutex mutex_;
  RuntimeStats totals_;
  uint64_t batched_requests_ = 0;
  /// Served latencies: fixed buckets (with their count and sum) plus the
  /// extremes, so memory and snapshot cost stay constant however long the
  /// engine serves. Per collector: the registry histogram aggregates
  /// engines.
  obs::Histogram latency_buckets_;
  double latency_min_ms_ = 0.0;
  double latency_max_ms_ = 0.0;
  /// Ring buffer of the last kQueueWaitWindow queue waits (ms).
  std::vector<double> queue_waits_ms_;
  size_t queue_wait_count_ = 0;
  std::chrono::steady_clock::time_point start_;

  // Registry instruments (registry-owned, process-lifetime references).
  obs::Counter& m_submitted_;
  obs::Counter& m_served_;
  obs::Counter& m_degraded_;
  obs::Counter& m_failed_;
  obs::Counter& m_timed_out_;
  obs::Counter& m_cancelled_;
  obs::Counter& m_queue_full_;
  obs::Counter& m_invalid_;
  obs::Counter& m_batches_;
  obs::Counter& m_batched_requests_;
  obs::Histogram& m_latency_ms_;
  obs::Histogram& m_queue_wait_ms_;
};

}  // namespace roadfusion::runtime
