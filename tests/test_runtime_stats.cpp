// Deterministic tests of the engine stats collector (src/runtime/stats.*):
// percentile math, mean batch size, degraded accounting, dual-publishing
// into a metrics registry, and snapshot consistency under concurrent
// recording.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/stats.hpp"

namespace roadfusion::runtime {
namespace {

// Each collector gets its own registry so tests never observe counts
// accumulated by other suites through MetricsRegistry::global().
struct Harness {
  obs::MetricsRegistry registry;
  StatsCollector collector{registry};
};

TEST(RuntimeStatsTest, EmptySnapshotIsAllZeros) {
  Harness h;
  const RuntimeStats stats = h.collector.snapshot();
  EXPECT_EQ(stats.requests_submitted, 0u);
  EXPECT_EQ(stats.requests_served, 0u);
  EXPECT_EQ(stats.requests_degraded, 0u);
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.requests_timed_out, 0u);
  EXPECT_EQ(stats.requests_cancelled, 0u);
  EXPECT_EQ(stats.queue_full_rejections, 0u);
  EXPECT_EQ(stats.invalid_input_rejections, 0u);
  EXPECT_EQ(stats.batches_formed, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(stats.p50_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99_latency_ms, 0.0);
}

TEST(RuntimeStatsTest, SingleSampleIsItsOwnPercentile) {
  Harness h;
  h.collector.record_served(7.5);
  const RuntimeStats stats = h.collector.snapshot();
  EXPECT_EQ(stats.requests_served, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, 7.5);
  EXPECT_DOUBLE_EQ(stats.p50_latency_ms, 7.5);
  EXPECT_DOUBLE_EQ(stats.p99_latency_ms, 7.5);
}

TEST(RuntimeStatsTest, PercentilesInterpolateLinearly) {
  Harness h;
  // 1..100 ms, recorded out of order.
  for (int i = 100; i >= 1; --i) {
    h.collector.record_served(static_cast<double>(i));
  }
  const RuntimeStats stats = h.collector.snapshot();
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, 50.5);
  // rank = q * (n - 1): p50 → 49.5, in the (25, 50] bucket (samples 26..50
  // after 25 below), interpolated to its upper bound; p99 → 98.01, in the
  // (50, 100] bucket, 48.51 of its 50 samples in.
  EXPECT_DOUBLE_EQ(stats.p50_latency_ms, 50.0);
  EXPECT_NEAR(stats.p99_latency_ms, 98.51, 1e-9);
}

TEST(RuntimeStatsTest, PercentilesStayWithinObservedRange) {
  Harness h;
  for (int i = 0; i < 1000; ++i) {
    h.collector.record_served(3.0 + 0.001 * (i % 7));
  }
  const RuntimeStats stats = h.collector.snapshot();
  EXPECT_GE(stats.p50_latency_ms, 3.0);
  EXPECT_LE(stats.p99_latency_ms, 3.006);
  EXPECT_LE(stats.p50_latency_ms, stats.p99_latency_ms);
}

TEST(RuntimeStatsTest, MeanBatchSizeAveragesOverFormedBatches) {
  Harness h;
  h.collector.record_batch(1);
  h.collector.record_batch(4);
  h.collector.record_batch(4);
  const RuntimeStats stats = h.collector.snapshot();
  EXPECT_EQ(stats.batches_formed, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 3.0);
}

TEST(RuntimeStatsTest, DegradedServesCountInBothTotals) {
  Harness h;
  h.collector.record_served(1.0, /*degraded=*/false);
  h.collector.record_served(2.0, /*degraded=*/true);
  h.collector.record_served(3.0, /*degraded=*/true);
  const RuntimeStats stats = h.collector.snapshot();
  EXPECT_EQ(stats.requests_served, 3u);
  EXPECT_EQ(stats.requests_degraded, 2u);
}

TEST(RuntimeStatsTest, FailureCountersAccumulateByCount) {
  Harness h;
  h.collector.record_submitted();
  h.collector.record_submitted();
  h.collector.record_rejection();
  h.collector.record_invalid_input();
  h.collector.record_failed(2);
  h.collector.record_timed_out(3);
  h.collector.record_cancelled(4);
  const RuntimeStats stats = h.collector.snapshot();
  EXPECT_EQ(stats.requests_submitted, 2u);
  EXPECT_EQ(stats.queue_full_rejections, 1u);
  EXPECT_EQ(stats.invalid_input_rejections, 1u);
  EXPECT_EQ(stats.requests_failed, 2u);
  EXPECT_EQ(stats.requests_timed_out, 3u);
  EXPECT_EQ(stats.requests_cancelled, 4u);
}

TEST(RuntimeStatsTest, EveryRecordDualPublishesIntoTheRegistry) {
  Harness h;
  h.collector.record_submitted();
  h.collector.record_batch(2);
  h.collector.record_served(0.75, /*degraded=*/true);
  h.collector.record_failed(1);

  auto counter_value = [&h](const std::string& name) {
    return h.registry.counter(name).value();
  };
  EXPECT_EQ(counter_value("roadfusion_engine_requests_submitted_total"), 1u);
  EXPECT_EQ(counter_value("roadfusion_engine_batches_formed_total"), 1u);
  EXPECT_EQ(counter_value("roadfusion_engine_batched_requests_total"), 2u);
  EXPECT_EQ(counter_value("roadfusion_engine_requests_served_total"), 1u);
  EXPECT_EQ(counter_value("roadfusion_engine_requests_degraded_total"), 1u);
  EXPECT_EQ(counter_value("roadfusion_engine_requests_failed_total"), 1u);

  obs::Histogram& latency = h.registry.histogram(
      "roadfusion_engine_request_latency_ms", latency_bucket_bounds_ms());
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_DOUBLE_EQ(latency.sum(), 0.75);
  // 0.75 ms exceeds the le="0.5" bound, so it lands in the le="1" bucket.
  const std::vector<uint64_t> buckets = latency.bucket_counts();
  EXPECT_EQ(buckets[0], 0u);
  EXPECT_EQ(buckets[1], 1u);
}

TEST(RuntimeStatsTest, TwoCollectorsShareOneRegistryButNotSnapshots) {
  obs::MetricsRegistry registry;
  StatsCollector first(registry);
  StatsCollector second(registry);
  first.record_served(1.0);
  second.record_served(2.0);
  second.record_served(3.0);
  EXPECT_EQ(first.snapshot().requests_served, 1u);
  EXPECT_EQ(second.snapshot().requests_served, 2u);
  // The registry aggregates across engines.
  EXPECT_EQ(
      registry.counter("roadfusion_engine_requests_served_total").value(),
      3u);
}

TEST(RuntimeStatsTest, LatencyBucketBoundsAreStrictlyIncreasing) {
  const std::vector<double>& bounds = latency_bucket_bounds_ms();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(RuntimeStatsTest, ConcurrentRecordingYieldsConsistentSnapshots) {
  Harness h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  // Writer iterations the reader waits for between two polls.
  constexpr int kPollStride = 64;
  std::atomic<bool> stop{false};
  std::atomic<int> recorded{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, &recorded] {
      for (int i = 0; i < kPerThread; ++i) {
        h.collector.record_submitted();
        h.collector.record_served(1.0);
        recorded.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // A reader polls snapshots while writers run: served must never exceed
  // submitted, and both must be monotonically non-decreasing. Between
  // polls it yields until the writers have moved on, so it cannot starve
  // them of the collector's lock: a snapshot sorts every recorded latency
  // under that lock, and under ThreadSanitizer a reader polling back to
  // back (even with a bare yield) stalled the writers for minutes.
  std::thread reader([&h, &stop, &recorded] {
    uint64_t last_submitted = 0;
    uint64_t last_served = 0;
    while (!stop.load()) {
      const int seen = recorded.load(std::memory_order_relaxed);
      const RuntimeStats stats = h.collector.snapshot();
      EXPECT_GE(stats.requests_submitted, last_submitted);
      EXPECT_GE(stats.requests_served, last_served);
      // Writers submit before serving, so a consistent snapshot can never
      // show more serves than submissions.
      EXPECT_LE(stats.requests_served, stats.requests_submitted);
      last_submitted = stats.requests_submitted;
      last_served = stats.requests_served;
      while (!stop.load() &&
             recorded.load(std::memory_order_relaxed) < seen + kPollStride) {
        std::this_thread::yield();
      }
    }
  });
  for (std::thread& writer : writers) {
    writer.join();
  }
  stop.store(true);
  reader.join();

  const RuntimeStats stats = h.collector.snapshot();
  EXPECT_EQ(stats.requests_submitted,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.requests_served,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, 1.0);
}

}  // namespace
}  // namespace roadfusion::runtime
