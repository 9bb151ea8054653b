#include "runtime/stats.hpp"

#include <algorithm>
#include <cmath>

namespace roadfusion::runtime {

namespace {

/// Quantile q of the samples in `h`, interpolated linearly within the
/// bucket holding rank q * (n - 1) and clamped to [lo, hi], the observed
/// extremes.
double bucket_quantile(const obs::Histogram& h, double q, double lo,
                       double hi) {
  const std::vector<uint64_t> counts = h.bucket_counts();
  const std::vector<double>& bounds = h.bounds();
  const uint64_t n = h.count();
  if (n == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(n - 1);
  uint64_t before = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0 || static_cast<double>(before + counts[i]) <= rank) {
      before += counts[i];
      continue;
    }
    const double lower = std::max(lo, i == 0 ? lo : bounds[i - 1]);
    const double upper = std::min(hi, i < bounds.size() ? bounds[i] : hi);
    const double frac = (rank - static_cast<double>(before) + 0.5) /
                        static_cast<double>(counts[i]);
    return std::clamp(lower + (upper - lower) * frac, lo, hi);
  }
  return hi;
}

}  // namespace

const std::vector<double>& latency_bucket_bounds_ms() {
  static const std::vector<double> kBounds = {0.5, 1,   2.5, 5,   10,   25,
                                              50,  100, 250, 500, 1000, 2500};
  return kBounds;
}

StatsCollector::StatsCollector() : StatsCollector(obs::MetricsRegistry::global()) {}

StatsCollector::StatsCollector(obs::MetricsRegistry& registry)
    : latency_buckets_(latency_bucket_bounds_ms()),
      start_(std::chrono::steady_clock::now()),
      m_submitted_(registry.counter("roadfusion_engine_requests_submitted_total",
                                    "Requests accepted into the queue")),
      m_served_(registry.counter("roadfusion_engine_requests_served_total",
                                 "Futures fulfilled with a result")),
      m_degraded_(registry.counter("roadfusion_engine_requests_degraded_total",
                                   "Requests served RGB-only")),
      m_failed_(registry.counter("roadfusion_engine_requests_failed_total",
                                 "Futures failed by a forward error")),
      m_timed_out_(registry.counter("roadfusion_engine_requests_timed_out_total",
                                    "Futures failed by deadline expiry")),
      m_cancelled_(registry.counter("roadfusion_engine_requests_cancelled_total",
                                    "Futures failed by cancel shutdown")),
      m_queue_full_(registry.counter("roadfusion_engine_queue_full_rejections_total",
                                     "Submissions rejected on a full queue")),
      m_invalid_(registry.counter("roadfusion_engine_invalid_input_rejections_total",
                                  "Submissions rejected by input validation")),
      m_batches_(registry.counter("roadfusion_engine_batches_formed_total",
                                  "Micro-batches formed by the worker pool")),
      m_batched_requests_(registry.counter("roadfusion_engine_batched_requests_total",
                                           "Requests placed into formed batches")),
      m_latency_ms_(registry.histogram("roadfusion_engine_request_latency_ms",
                                       latency_bucket_bounds_ms(),
                                       "Submit-to-completion latency, served "
                                       "requests, milliseconds")),
      m_queue_wait_ms_(registry.histogram(
          "roadfusion_engine_queue_wait_ms", latency_bucket_bounds_ms(),
          "Queue wait of popped requests, milliseconds")) {}

void StatsCollector::record_submitted() {
  m_submitted_.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.requests_submitted;
}

void StatsCollector::record_rejection() {
  m_queue_full_.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.queue_full_rejections;
}

void StatsCollector::record_batch(size_t batch_size) {
  m_batches_.inc();
  m_batched_requests_.inc(batch_size);
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.batches_formed;
  batched_requests_ += batch_size;
}

void StatsCollector::record_invalid_input() {
  m_invalid_.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.invalid_input_rejections;
}

void StatsCollector::record_served(double latency_ms, bool degraded) {
  m_served_.inc();
  if (degraded) {
    m_degraded_.inc();
  }
  m_latency_ms_.observe(latency_ms);
  std::lock_guard<std::mutex> lock(mutex_);
  if (totals_.requests_served == 0) {
    latency_min_ms_ = latency_ms;
    latency_max_ms_ = latency_ms;
  }
  ++totals_.requests_served;
  if (degraded) {
    ++totals_.requests_degraded;
  }
  latency_buckets_.observe(latency_ms);
  latency_min_ms_ = std::min(latency_min_ms_, latency_ms);
  latency_max_ms_ = std::max(latency_max_ms_, latency_ms);
}

void StatsCollector::record_failed(size_t count) {
  m_failed_.inc(count);
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.requests_failed += count;
}

void StatsCollector::record_timed_out(size_t count) {
  m_timed_out_.inc(count);
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.requests_timed_out += count;
}

void StatsCollector::record_cancelled(size_t count) {
  m_cancelled_.inc(count);
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.requests_cancelled += count;
}

void StatsCollector::record_queue_wait(double wait_ms) {
  m_queue_wait_ms_.observe(wait_ms);
  std::lock_guard<std::mutex> lock(mutex_);
  queue_waits_ms_[queue_wait_count_ % kQueueWaitWindow] = wait_ms;
  ++queue_wait_count_;
}

double StatsCollector::queue_wait_p99_locked() const {
  const size_t n = std::min(queue_wait_count_, kQueueWaitWindow);
  if (n == 0) {
    return 0.0;
  }
  // Linear interpolation between order statistics lo and hi = lo or
  // lo + 1 of the window, selected rather than sorted.
  std::array<double, kQueueWaitWindow> w = queue_waits_ms_;
  const double rank = 0.99 * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  std::nth_element(w.begin(), w.begin() + hi, w.begin() + n);
  std::nth_element(w.begin(), w.begin() + lo, w.begin() + hi);
  return w[lo] + (w[hi] - w[lo]) * frac;
}

double StatsCollector::recent_queue_wait_p99_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_wait_p99_locked();
}

RuntimeStats StatsCollector::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RuntimeStats out = totals_;
  if (out.batches_formed > 0) {
    out.mean_batch_size = static_cast<double>(batched_requests_) /
                          static_cast<double>(out.batches_formed);
  }
  if (out.requests_served > 0) {
    out.mean_latency_ms = latency_buckets_.sum() /
                          static_cast<double>(latency_buckets_.count());
    out.p50_latency_ms = bucket_quantile(latency_buckets_, 0.50,
                                         latency_min_ms_, latency_max_ms_);
    out.p99_latency_ms = bucket_quantile(latency_buckets_, 0.99,
                                         latency_min_ms_, latency_max_ms_);
  }
  out.recent_queue_wait_p99_ms = queue_wait_p99_locked();
  out.elapsed_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  if (out.elapsed_s > 0.0) {
    out.throughput_rps =
        static_cast<double>(out.requests_served) / out.elapsed_s;
  }
  return out;
}

}  // namespace roadfusion::runtime
