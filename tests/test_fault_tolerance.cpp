// Fault-tolerant serving: sensor health classification, graceful RGB-only
// degradation (bit-identical to the fusion_weight = 0 forward), worker
// isolation of forward failures, per-request deadlines, the deterministic
// fault-injection harness, and shutdown under fault. Runs under
// ROADFUSION_SANITIZE=thread|address|undefined via tools/run_tier1.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "kitti/sensor_health.hpp"
#include "roadseg/roadseg_net.hpp"
#include "runtime/engine.hpp"
#include "runtime/fault_injection.hpp"

namespace roadfusion::runtime {
namespace {

using kitti::SensorHealthConfig;
using kitti::SensorStatus;
using kitti::check_sensor_health;
using roadseg::RoadSegConfig;
using roadseg::RoadSegNet;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

constexpr int64_t kHeight = 8;
constexpr int64_t kWidth = 16;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

RoadSegConfig small_config(core::FusionScheme scheme) {
  RoadSegConfig config;
  config.scheme = scheme;
  config.stage_channels = {4, 6, 8};
  return config;
}

Tensor make_rgb(uint64_t seed) {
  Rng rng(seed);
  return Tensor::uniform(Shape::chw(3, kHeight, kWidth), rng);
}

Tensor make_depth(uint64_t seed) {
  Rng rng(seed);
  return Tensor::uniform(Shape::chw(1, kHeight, kWidth), rng);
}

Tensor nan_poisoned(Tensor depth) {
  for (int64_t i = 0; i < depth.numel() / 3; ++i) {
    depth.raw()[i] = kNaN;
  }
  return depth;
}

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << "first difference at flat index " << i;
  }
}

// ---------------------------------------------------------------------------
// Sensor health classification
// ---------------------------------------------------------------------------

TEST(SensorHealth, CleanPairIsHealthy) {
  const auto report = check_sensor_health(make_rgb(1), make_depth(2));
  EXPECT_EQ(report.status, SensorStatus::kHealthy);
  EXPECT_EQ(report.nonfinite_rgb, 0);
  EXPECT_EQ(report.nonfinite_depth, 0);
  EXPECT_TRUE(report.detail.empty());
}

TEST(SensorHealth, NanDepthIsDegraded) {
  const auto report =
      check_sensor_health(make_rgb(1), nan_poisoned(make_depth(2)));
  EXPECT_EQ(report.status, SensorStatus::kDegraded);
  EXPECT_GT(report.nonfinite_depth, 0);
  EXPECT_FALSE(report.detail.empty());
}

TEST(SensorHealth, NanDepthIsInvalidInStrictMode) {
  SensorHealthConfig config;
  config.degrade_on_nonfinite_depth = false;
  const auto report =
      check_sensor_health(make_rgb(1), nan_poisoned(make_depth(2)), config);
  EXPECT_EQ(report.status, SensorStatus::kInvalid);
}

TEST(SensorHealth, DeadDepthAboveThresholdIsDegraded) {
  Tensor depth = make_depth(3);
  // Zero 75% of the pixels: above the 0.6 default threshold.
  for (int64_t i = 0; i < depth.numel() * 3 / 4; ++i) {
    depth.raw()[i] = 0.0f;
  }
  const auto report = check_sensor_health(make_rgb(1), depth);
  EXPECT_EQ(report.status, SensorStatus::kDegraded);
  EXPECT_GE(report.dead_depth_fraction, 0.6f);
}

TEST(SensorHealth, SparseZerosStayHealthy) {
  Tensor depth = make_depth(4);
  for (int64_t i = 0; i < depth.numel() / 4; ++i) {
    depth.raw()[i] = 0.0f;  // 25% < threshold
  }
  EXPECT_EQ(check_sensor_health(make_rgb(1), depth).status,
            SensorStatus::kHealthy);
}

TEST(SensorHealth, NonFiniteRgbIsInvalid) {
  Tensor rgb = make_rgb(5);
  rgb.raw()[0] = kNaN;
  const auto report = check_sensor_health(rgb, make_depth(6));
  EXPECT_EQ(report.status, SensorStatus::kInvalid);
  EXPECT_GT(report.nonfinite_rgb, 0);
}

TEST(SensorHealth, MalformedGeometryIsInvalid) {
  Rng rng(7);
  const Tensor rgb = make_rgb(8);
  // H x W mismatch.
  EXPECT_EQ(check_sensor_health(
                rgb, Tensor::uniform(Shape::chw(1, kHeight / 2, kWidth), rng))
                .status,
            SensorStatus::kInvalid);
  // Wrong rank.
  EXPECT_EQ(check_sensor_health(
                rgb.reshaped(Shape::nchw(1, 3, kHeight, kWidth)),
                make_depth(9))
                .status,
            SensorStatus::kInvalid);
  // Wrong channel counts.
  EXPECT_EQ(check_sensor_health(
                Tensor::uniform(Shape::chw(4, kHeight, kWidth), rng),
                make_depth(10))
                .status,
            SensorStatus::kInvalid);
  EXPECT_EQ(check_sensor_health(
                rgb, Tensor::uniform(Shape::chw(2, kHeight, kWidth), rng))
                .status,
            SensorStatus::kInvalid);
}

// ---------------------------------------------------------------------------
// Fault spec parsing & injector determinism
// ---------------------------------------------------------------------------

TEST(FaultSpec, EmptySpecIsDefaults) {
  const FaultSpec spec = parse_fault_spec("");
  EXPECT_EQ(spec.rate, 0.0);
  EXPECT_EQ(spec.kinds.size(), 6u);
}

TEST(FaultSpec, ParsesFullGrammar) {
  const FaultSpec spec =
      parse_fault_spec("rate=0.25,seed=99,slow-ms=5,kinds=nan+slow+throw");
  EXPECT_DOUBLE_EQ(spec.rate, 0.25);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.slow_batch_ms, 5);
  ASSERT_EQ(spec.kinds.size(), 3u);
  EXPECT_EQ(spec.kinds[0], FaultKind::kNanDepth);
  EXPECT_EQ(spec.kinds[1], FaultKind::kSlowBatch);
  EXPECT_EQ(spec.kinds[2], FaultKind::kThrowingForward);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec("rate=1.5"), Error);
  EXPECT_THROW(parse_fault_spec("rate=abc"), Error);
  EXPECT_THROW(parse_fault_spec("bogus=1"), Error);
  EXPECT_THROW(parse_fault_spec("kinds=martian"), Error);
  EXPECT_THROW(parse_fault_spec("rate"), Error);
}

TEST(FaultInjector, SameSeedSameFaultSequence) {
  const FaultSpec spec = parse_fault_spec("rate=0.3,seed=1234");
  FaultInjector a(spec);
  FaultInjector b(spec);
  for (int i = 0; i < 200; ++i) {
    const auto fa = a.draw();
    const auto fb = b.draw();
    ASSERT_EQ(fa.has_value(), fb.has_value()) << "diverged at draw " << i;
    if (fa) {
      ASSERT_EQ(*fa, *fb) << "diverged at draw " << i;
    }
  }
  EXPECT_EQ(a.faulted(), b.faulted());
  EXPECT_GT(a.faulted(), 0u);
  EXPECT_LT(a.faulted(), 200u);
}

TEST(FaultInjector, InputFaultsProduceTheAdvertisedClass) {
  FaultSpec spec;
  FaultInjector injector(spec);
  {
    Tensor rgb = make_rgb(11);
    Tensor depth = make_depth(12);
    injector.apply(FaultKind::kNanDepth, rgb, depth);
    EXPECT_EQ(check_sensor_health(rgb, depth).status,
              SensorStatus::kDegraded);
  }
  {
    Tensor rgb = make_rgb(13);
    Tensor depth = make_depth(14);
    injector.apply(FaultKind::kScanlineDropout, rgb, depth);
    EXPECT_EQ(check_sensor_health(rgb, depth).status,
              SensorStatus::kDegraded);
  }
  {
    Tensor rgb = make_rgb(15);
    Tensor depth = make_depth(16);
    injector.apply(FaultKind::kBadShape, rgb, depth);
    EXPECT_EQ(check_sensor_health(rgb, depth).status,
              SensorStatus::kInvalid);
  }
  {
    Tensor rgb = make_rgb(17);
    Tensor depth = make_depth(18);
    injector.apply(FaultKind::kIndivisibleShape, rgb, depth);
    // Internally consistent (health passes) but stride-incompatible.
    EXPECT_EQ(check_sensor_health(rgb, depth).status,
              SensorStatus::kHealthy);
    EXPECT_NE(rgb.shape().dim(1) % 4, 0);
  }
}

// ---------------------------------------------------------------------------
// Engine: graceful degradation (acceptance a)
// ---------------------------------------------------------------------------

TEST(FaultTolerantEngine, NanDepthServesRgbOnlyBitIdentical) {
  Rng rng(21);
  RoadSegNet net(small_config(core::FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  const Tensor rgb = make_rgb(22);
  const Tensor bad_depth = nan_poisoned(make_depth(23));

  // Reference: the RGB-only forward, computed outside the engine. With
  // fusion_weight = 0 the depth values are never read, so NaNs are inert.
  const Tensor expected = net.predict_fused(rgb, bad_depth, 0.0f);
  for (int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(expected.at(i)))
        << "RGB-only forward leaked NaN at " << i;
  }

  InferenceEngine engine(net, {});
  const InferenceResult result = engine.submit(rgb, bad_depth).get();
  EXPECT_TRUE(result.degraded);
  expect_bit_identical(result.output, expected);

  // A healthy request through the same engine is NOT degraded and matches
  // the full fused forward.
  const Tensor good_depth = make_depth(24);
  const Tensor fused_expected = net.predict(rgb, good_depth);
  const InferenceResult healthy = engine.submit(rgb, good_depth).get();
  EXPECT_FALSE(healthy.degraded);
  expect_bit_identical(healthy.output, fused_expected);

  engine.shutdown(ShutdownMode::kDrain);
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.requests_served, 2u);
  EXPECT_EQ(stats.requests_degraded, 1u);
}

TEST(FaultTolerantEngine, DegradedAndHealthyNeverShareABatch) {
  Rng rng(31);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  net.set_training(false);
  const Tensor rgb = make_rgb(32);
  const Tensor good_depth = make_depth(33);
  const Tensor bad_depth = nan_poisoned(make_depth(34));
  const Tensor expected_fused = net.predict(rgb, good_depth);
  const Tensor expected_rgb_only = net.predict_fused(rgb, bad_depth, 0.0f);

  EngineConfig config;
  config.threads = 2;
  config.max_batch = 4;
  config.max_wait_us = 2000;
  InferenceEngine engine(net, config);
  std::vector<std::future<InferenceResult>> futures;
  std::vector<bool> is_bad;
  for (int i = 0; i < 12; ++i) {
    const bool bad = i % 3 == 0;
    is_bad.push_back(bad);
    futures.push_back(engine.submit(rgb, bad ? bad_depth : good_depth));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult result = futures[i].get();
    EXPECT_EQ(result.degraded, is_bad[i]) << "request " << i;
    expect_bit_identical(result.output,
                         is_bad[i] ? expected_rgb_only : expected_fused);
  }
}

TEST(FaultTolerantEngine, InvalidInputsRejectedAtSubmitAndCounted) {
  Rng rng(41);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  InferenceEngine engine(net, {});
  Tensor rgb = make_rgb(42);
  rgb.raw()[5] = kNaN;
  EXPECT_THROW((void)engine.submit(rgb, make_depth(43)), InvalidInputError);
  EXPECT_THROW((void)engine.submit(
                   make_rgb(44),
                   Tensor::uniform(Shape::chw(1, kHeight, kWidth / 2), rng)),
               InvalidInputError);
  EXPECT_EQ(engine.stats().invalid_input_rejections, 2u);
  EXPECT_EQ(engine.stats().requests_submitted, 0u);
}

// ---------------------------------------------------------------------------
// Engine: worker isolation of forward failures (acceptance b)
// ---------------------------------------------------------------------------

TEST(FaultTolerantEngine, ThrowingForwardFailsOnlyItsBatch) {
  Rng rng(51);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  net.set_training(false);
  const Tensor rgb = make_rgb(52);
  const Tensor depth = make_depth(53);
  const Tensor expected = net.predict(rgb, depth);

  FaultSpec spec;
  FaultInjector injector(spec);
  EngineConfig config;
  config.threads = 1;
  config.max_batch = 1;  // the armed throw hits exactly one request
  config.pre_forward_hook = injector.engine_hook();
  InferenceEngine engine(net, config);

  {
    Tensor frgb = rgb;
    Tensor fdepth = depth;
    injector.apply(FaultKind::kThrowingForward, frgb, fdepth);
    auto doomed = engine.submit(frgb, fdepth);
    EXPECT_THROW((void)doomed.get(), InferenceError);
  }

  // The engine must keep serving; 100 subsequent requests all succeed and
  // stay bit-identical to the sequential reference.
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(engine.submit(rgb, depth));
  }
  for (auto& future : futures) {
    expect_bit_identical(future.get().output, expected);
  }
  engine.shutdown(ShutdownMode::kDrain);
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.requests_served, 100u);
  EXPECT_EQ(stats.requests_failed, 1u);
}

TEST(FaultTolerantEngine, StrideFaultIsRejectedAtSubmit) {
  Rng rng(61);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  net.set_training(false);
  const Tensor rgb = make_rgb(62);
  const Tensor depth = make_depth(63);
  const Tensor expected = net.predict(rgb, depth);

  FaultSpec spec;
  FaultInjector injector(spec);
  EngineConfig config;
  config.threads = 1;
  config.max_batch = 4;
  config.max_wait_us = 2000;
  InferenceEngine engine(net, config);

  // Submit healthy and stride-faulted requests interleaved: the faulted
  // geometry passes the health check but not the model's input contract,
  // so it is rejected at submit and never reaches a batch.
  std::vector<std::future<InferenceResult>> healthy;
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      healthy.push_back(engine.submit(rgb, depth));
    } else {
      Tensor frgb = rgb;
      Tensor fdepth = depth;
      injector.apply(FaultKind::kIndivisibleShape, frgb, fdepth);
      EXPECT_THROW((void)engine.submit(frgb, fdepth), InvalidInputError);
    }
  }
  for (auto& future : healthy) {
    expect_bit_identical(future.get().output, expected);
  }
  engine.shutdown(ShutdownMode::kDrain);
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.invalid_input_rejections, 3u);
  EXPECT_EQ(stats.requests_failed, 0u);
}

// ---------------------------------------------------------------------------
// Engine: deadlines (acceptance c)
// ---------------------------------------------------------------------------

TEST(FaultTolerantEngine, ExpiredDeadlineYieldsTypedErrorNotAHang) {
  Rng rng(71);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  net.set_training(false);
  const Tensor rgb = make_rgb(72);
  const Tensor depth = make_depth(73);

  // A slow first batch (armed sleep) pins the single worker while the
  // second request's deadline expires in the queue.
  FaultSpec spec;
  spec.slow_batch_ms = 100;
  FaultInjector injector(spec);
  EngineConfig config;
  config.threads = 1;
  config.max_batch = 1;
  config.pre_forward_hook = injector.engine_hook();
  InferenceEngine engine(net, config);

  Tensor srgb = rgb;
  Tensor sdepth = depth;
  injector.apply(FaultKind::kSlowBatch, srgb, sdepth);
  auto slow = engine.submit(srgb, sdepth);

  SubmitOptions options;
  options.deadline_ms = 10;
  auto late = engine.submit(rgb, depth, options);

  // The slow request itself succeeds (slowness is not an error)...
  EXPECT_EQ(slow.get().output.shape(), Shape::chw(1, kHeight, kWidth));
  // ...and the queued one resolves with the typed deadline error. get()
  // returning at all is the no-hang half of the contract.
  EXPECT_THROW((void)late.get(), DeadlineExceededError);
  engine.shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(engine.stats().requests_timed_out, 1u);
}

TEST(FaultTolerantEngine, GenerousDeadlineDoesNotFire) {
  Rng rng(81);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  net.set_training(false);
  EngineConfig config;
  config.default_deadline_ms = 60000;
  InferenceEngine engine(net, config);
  SubmitOptions per_request;
  per_request.deadline_ms = -1;  // explicitly disabled
  EXPECT_EQ(engine.submit(make_rgb(82), make_depth(83))
                .get()
                .output.shape(),
            Shape::chw(1, kHeight, kWidth));
  EXPECT_EQ(engine.submit(make_rgb(84), make_depth(85), per_request)
                .get()
                .output.shape(),
            Shape::chw(1, kHeight, kWidth));
  EXPECT_EQ(engine.stats().requests_timed_out, 0u);
}

// ---------------------------------------------------------------------------
// Shutdown under fault
// ---------------------------------------------------------------------------

TEST(FaultTolerantEngine, CancelShutdownMidFaultResolvesEveryFuture) {
  Rng rng(91);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  net.set_training(false);
  const Tensor rgb = make_rgb(92);
  const Tensor depth = make_depth(93);

  // The hook blocks the first batch until the main thread has initiated
  // shutdown, then throws — shutdown races an in-flight failing forward.
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  EngineConfig config;
  config.threads = 1;
  config.max_batch = 1;
  config.pre_forward_hook = [&](size_t) {
    if (!entered.exchange(true)) {
      while (!release.load()) {
        std::this_thread::yield();
      }
      throw Error("injected failure during shutdown");
    }
  };
  InferenceEngine engine(net, config);

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.submit(rgb, depth));
  }
  while (!entered.load()) {
    std::this_thread::yield();
  }
  std::thread closer([&] { engine.shutdown(ShutdownMode::kCancel); });
  release.store(true);
  closer.join();

  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  for (auto& future : futures) {
    try {
      (void)future.get();
      ++served;
    } catch (const InferenceError&) {
      ++failed;
    } catch (const RequestCancelledError&) {
      ++cancelled;
    }
  }
  // Every future resolved one way or another — none left dangling.
  EXPECT_EQ(served + failed + cancelled, futures.size());
  EXPECT_GE(failed, 1u);  // the in-flight batch failed, not vanished
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.requests_served, served);
  EXPECT_EQ(stats.requests_failed, failed);
  EXPECT_EQ(stats.requests_cancelled, cancelled);
}

TEST(FaultTolerantEngine, DrainShutdownWithFullQueueAndInvalidRequests) {
  Rng rng(101);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  net.set_training(false);
  const Tensor rgb = make_rgb(102);
  const Tensor depth = make_depth(103);
  const Tensor expected = net.predict(rgb, depth);
  Tensor invalid_rgb = make_rgb(104);
  invalid_rgb.raw()[0] = kNaN;

  EngineConfig config;
  config.threads = 1;
  config.max_batch = 2;
  config.queue_capacity = 2;
  config.overflow = OverflowPolicy::kReject;
  InferenceEngine engine(net, config);

  std::vector<std::future<InferenceResult>> accepted;
  uint64_t queue_rejections = 0;
  uint64_t invalid_rejections = 0;
  for (int i = 0; i < 32; ++i) {
    try {
      if (i % 4 == 3) {
        (void)engine.submit(invalid_rgb, depth);
        ADD_FAILURE() << "invalid request " << i << " was accepted";
      } else {
        accepted.push_back(engine.submit(rgb, depth));
      }
    } catch (const QueueFullError&) {
      ++queue_rejections;
    } catch (const InvalidInputError&) {
      ++invalid_rejections;
    }
  }
  engine.shutdown(ShutdownMode::kDrain);

  // Drain mode: every accepted request is served, bit-identical.
  for (auto& future : accepted) {
    expect_bit_identical(future.get().output, expected);
  }
  EXPECT_EQ(invalid_rejections, 8u);
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.requests_served, accepted.size());
  EXPECT_EQ(stats.queue_full_rejections, queue_rejections);
  EXPECT_EQ(stats.invalid_input_rejections, invalid_rejections);
  // Submitting after shutdown still fails fast with the typed error.
  EXPECT_THROW((void)engine.submit(rgb, depth), EngineStoppedError);
}

}  // namespace
}  // namespace roadfusion::runtime
