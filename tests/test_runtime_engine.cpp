// InferenceEngine behaviour: the golden bit-identical guarantee (batched
// multi-threaded output == sequential predict), backpressure policies,
// deterministic shutdown in both modes, error propagation, metrics, and
// a multi-producer stress test (run under ROADFUSION_SANITIZE=thread to
// data-race-check the runtime).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "roadseg/roadseg_net.hpp"
#include "runtime/engine.hpp"
#include "tensor/ops.hpp"

namespace roadfusion::runtime {
namespace {

using roadseg::RoadSegConfig;
using roadseg::RoadSegNet;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

// Small 3-stage net (input H/W divisible by 4) keeps forwards cheap while
// still covering encoders, fusion and decoder.
constexpr int64_t kHeight = 8;
constexpr int64_t kWidth = 16;

RoadSegConfig small_config(core::FusionScheme scheme) {
  RoadSegConfig config;
  config.scheme = scheme;
  config.stage_channels = {4, 6, 8};
  return config;
}

struct ScenePair {
  Tensor rgb;
  Tensor depth;
};

std::vector<ScenePair> make_scenes(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<ScenePair> scenes;
  for (int i = 0; i < count; ++i) {
    scenes.push_back(
        {Tensor::uniform(Shape::chw(3, kHeight, kWidth), rng),
         Tensor::uniform(Shape::chw(1, kHeight, kWidth), rng)});
  }
  return scenes;
}

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << "first difference at flat index " << i;
  }
}

TEST(InferenceEngine, GoldenBatchedOutputBitIdenticalToSequential) {
  for (core::FusionScheme scheme : {core::FusionScheme::kBaseline,
                                    core::FusionScheme::kWeightedSharing}) {
    Rng rng(7);
    RoadSegNet net(small_config(scheme), rng);
    net.set_training(false);
    const std::vector<ScenePair> scenes = make_scenes(6, 11);

    // Sequential reference, computed before the engine exists.
    std::vector<Tensor> expected;
    for (const ScenePair& scene : scenes) {
      expected.push_back(net.predict(scene.rgb, scene.depth));
    }

    EngineConfig config;
    config.threads = 3;
    config.max_batch = 4;
    config.max_wait_us = 2000;
    InferenceEngine engine(net, config);
    std::vector<std::future<InferenceResult>> futures;
    for (const ScenePair& scene : scenes) {
      futures.push_back(engine.submit(scene.rgb, scene.depth));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      expect_bit_identical(futures[i].get().output, expected[i]);
    }
  }
}

TEST(InferenceEngine, ShutdownDrainServesEveryAcceptedRequest) {
  Rng rng(8);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  EngineConfig config;
  config.threads = 1;
  config.max_batch = 2;
  InferenceEngine engine(net, config);
  const std::vector<ScenePair> scenes = make_scenes(5, 21);
  std::vector<std::future<InferenceResult>> futures;
  for (const ScenePair& scene : scenes) {
    futures.push_back(engine.submit(scene.rgb, scene.depth));
  }
  engine.shutdown(ShutdownMode::kDrain);
  for (auto& future : futures) {
    EXPECT_EQ(future.get().output.shape(), Shape::chw(1, kHeight, kWidth));
  }
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.requests_served, 5u);
  EXPECT_EQ(stats.requests_cancelled, 0u);
  // Submitting after shutdown fails fast.
  EXPECT_THROW(engine.submit(scenes[0].rgb, scenes[0].depth),
               EngineStoppedError);
}

TEST(InferenceEngine, ShutdownCancelResolvesEveryFutureDeterministically) {
  Rng rng(9);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  EngineConfig config;
  config.threads = 1;
  config.max_batch = 1;
  InferenceEngine engine(net, config);
  const std::vector<ScenePair> scenes = make_scenes(8, 31);
  std::vector<std::future<InferenceResult>> futures;
  for (const ScenePair& scene : scenes) {
    futures.push_back(engine.submit(scene.rgb, scene.depth));
  }
  engine.shutdown(ShutdownMode::kCancel);
  uint64_t served = 0;
  uint64_t cancelled = 0;
  for (auto& future : futures) {
    try {
      (void)future.get();
      ++served;
    } catch (const RequestCancelledError&) {
      ++cancelled;
    }
  }
  // Every future resolved one way or the other — none left dangling.
  EXPECT_EQ(served + cancelled, scenes.size());
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.requests_served, served);
  EXPECT_EQ(stats.requests_cancelled, cancelled);
}

TEST(InferenceEngine, RejectPolicyCountsQueueFullRejections) {
  Rng rng(10);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  EngineConfig config;
  config.threads = 1;
  config.max_batch = 1;
  config.queue_capacity = 1;
  config.overflow = OverflowPolicy::kReject;
  InferenceEngine engine(net, config);
  const std::vector<ScenePair> scenes = make_scenes(1, 41);
  std::vector<std::future<InferenceResult>> accepted;
  uint64_t rejected = 0;
  // The single worker cannot keep up with a tight submission loop against
  // a capacity-1 queue, so rejections must occur.
  for (int i = 0; i < 64; ++i) {
    try {
      accepted.push_back(engine.submit(scenes[0].rgb, scenes[0].depth));
    } catch (const QueueFullError&) {
      ++rejected;
    }
  }
  engine.shutdown(ShutdownMode::kDrain);
  EXPECT_GT(rejected, 0u);
  for (auto& future : accepted) {
    EXPECT_EQ(future.get().output.shape(), Shape::chw(1, kHeight, kWidth));
  }
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.queue_full_rejections, rejected);
  EXPECT_EQ(stats.requests_submitted, accepted.size());
  EXPECT_EQ(stats.requests_served, accepted.size());
}

TEST(InferenceEngine, ModelFailureFailsTheRequestNotTheEngine) {
  Rng rng(11);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  EngineConfig config;
  // The first forward throws inside the worker; the error must surface
  // through that request's future.
  std::atomic<bool> thrown{false};
  config.pre_forward_hook = [&thrown](size_t) {
    if (!thrown.exchange(true)) {
      ROADFUSION_FAIL("model failure");
    }
  };
  InferenceEngine engine(net, config);
  const std::vector<ScenePair> first = make_scenes(1, 50);
  auto bad = engine.submit(first[0].rgb, first[0].depth);
  EXPECT_THROW((void)bad.get(), Error);
  // The engine survives and keeps serving good requests.
  const std::vector<ScenePair> scenes = make_scenes(1, 51);
  EXPECT_EQ(engine.submit(scenes[0].rgb, scenes[0].depth).get().output.shape(),
            Shape::chw(1, kHeight, kWidth));
}

TEST(InferenceEngine, MultiProducerStressServesAllBitIdentical) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 8;
  Rng rng(12);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  net.set_training(false);
  const std::vector<ScenePair> scenes = make_scenes(4, 61);
  std::vector<Tensor> expected;
  for (const ScenePair& scene : scenes) {
    expected.push_back(net.predict(scene.rgb, scene.depth));
  }

  EngineConfig config;
  config.threads = 2;
  config.max_batch = 3;
  config.queue_capacity = 4;  // small: producers hit backpressure
  config.overflow = OverflowPolicy::kBlock;
  InferenceEngine engine(net, config);

  std::vector<std::thread> producers;
  std::vector<std::vector<std::pair<size_t, std::future<InferenceResult>>>>
      per_producer(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const size_t scene_index = (p + i) % scenes.size();
        per_producer[p].emplace_back(
            scene_index, engine.submit(scenes[scene_index].rgb,
                                       scenes[scene_index].depth));
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  for (auto& futures : per_producer) {
    for (auto& [scene_index, future] : futures) {
      expect_bit_identical(future.get().output, expected[scene_index]);
    }
  }
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.requests_submitted,
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.requests_served,
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_GE(stats.mean_batch_size, 1.0);
  EXPECT_GT(stats.mean_latency_ms, 0.0);
  EXPECT_GE(stats.p99_latency_ms, stats.p50_latency_ms);
}

TEST(InferenceEngine, SubmitValidatesShapes) {
  Rng rng(13);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  InferenceEngine engine(net, {});
  Tensor rgb = Tensor::uniform(Shape::chw(3, kHeight, kWidth), rng);
  Tensor nchw_rgb = rgb.reshaped(Shape::nchw(1, 3, kHeight, kWidth));
  Tensor depth = Tensor::uniform(Shape::chw(1, kHeight, kWidth), rng);
  Tensor small_depth = Tensor::uniform(Shape::chw(1, kHeight / 2, kWidth), rng);
  EXPECT_THROW((void)engine.submit(nchw_rgb, depth), Error);
  EXPECT_THROW((void)engine.submit(rgb, small_depth), Error);
}

TEST(InferenceEngine, SubmitRejectsGeometryTheNetCannotStride) {
  Rng rng(15);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  InferenceEngine engine(net, {});
  // 30 x 90 passes the health check, but the 3-stage net's stride is 4:
  // the frame is rejected at submit instead of failing in a worker.
  Tensor rgb = Tensor::uniform(Shape::chw(3, 30, 90), rng);
  Tensor depth = Tensor::uniform(Shape::chw(1, 30, 90), rng);
  EXPECT_THROW((void)engine.submit(rgb, depth), InvalidInputError);
  // The engine keeps serving good requests.
  const std::vector<ScenePair> scenes = make_scenes(1, 52);
  EXPECT_EQ(engine.submit(scenes[0].rgb, scenes[0].depth).get().output.shape(),
            Shape::chw(1, kHeight, kWidth));
  engine.shutdown();
  const RuntimeStats stats = engine.stats();
  EXPECT_EQ(stats.invalid_input_rejections, 1u);
  EXPECT_EQ(stats.requests_submitted, 1u);
  EXPECT_EQ(stats.requests_failed, 0u);
}

TEST(InferenceEngine, RejectsBadConfig) {
  Rng rng(14);
  RoadSegNet net(small_config(core::FusionScheme::kBaseline), rng);
  EngineConfig config;
  config.threads = 0;
  EXPECT_THROW(InferenceEngine(net, config), Error);
  config.threads = 1;
  config.max_batch = 0;
  EXPECT_THROW(InferenceEngine(net, config), Error);
}

}  // namespace
}  // namespace roadfusion::runtime
