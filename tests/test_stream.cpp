// Temporally coherent streaming (DESIGN.md §15).
//
// The streaming contract is "bitwise or bust": every frame-to-frame
// shortcut — stale-scan reuse between LiDAR refreshes, the cross-frame
// depth-feature cache that skips the depth encoder — must be invisible in
// the output bits. These tests compare the
// streamed pipeline against fully independent per-frame recomputation at
// three levels (generator, model, serving round trip), pin the cache
// hit/miss cadence to the LiDAR period, and prove the steady state of a
// stream allocates nothing on the serving thread.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "alloc_hooks.hpp"
#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "roadseg/roadseg_net.hpp"
#include "scenario/stream.hpp"
#include "scenario/suite.hpp"
#include "serve/front_door.hpp"
#include "tensor/rng.hpp"

namespace roadfusion::scenario {
namespace {

using tensor::Rng;
using tensor::Tensor;

/// The oracle: road probabilities from the autograd graph
/// (`forward_fused`), for CHW frames.
Tensor graph_predict(const roadseg::RoadSegNet& net, const Tensor& rgb,
                     const Tensor& depth, float fusion_weight) {
  const autograd::InferenceModeGuard no_grad;
  const auto nchw = [](const Tensor& t) {
    return t.reshaped(tensor::Shape::nchw(1, t.shape().dim(0),
                                          t.shape().dim(1), t.shape().dim(2)));
  };
  const roadseg::ForwardResult result = net.forward_fused(
      autograd::Variable::constant(nchw(rgb)),
      autograd::Variable::constant(nchw(depth)), fusion_weight);
  return autograd::sigmoid(result.logits)
      .value()
      .reshaped(tensor::Shape::chw(1, rgb.shape().dim(1), rgb.shape().dim(2)));
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  EXPECT_EQ(0, std::memcmp(a.raw(), b.raw(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what << ": float bits differ";
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

StreamConfig small_stream(const std::string& corruptions = "") {
  StreamConfig config;
  config.dataset.image_width = 48;
  config.dataset.image_height = 32;
  config.lidar_period = 3;
  if (!corruptions.empty()) {
    config.corruptions = parse_corruptions(corruptions);
  }
  return config;
}

roadseg::RoadSegConfig small_net(
    core::FusionScheme scheme = core::FusionScheme::kWeightedSharing) {
  roadseg::RoadSegConfig config;
  config.scheme = scheme;
  config.stage_channels = {4, 6, 8, 10, 12};
  return config;
}

TEST(StreamGenerator, ReuseMatchesNaiveRecomputationBitwise) {
  StreamConfig reuse_cfg = small_stream("fog:0.5+night:0.4");
  StreamConfig naive_cfg = reuse_cfg;
  naive_cfg.frame_to_frame_reuse = false;
  StreamGenerator reuse(reuse_cfg);
  StreamGenerator naive(naive_cfg);
  for (int i = 0; i < 7; ++i) {
    const StreamFrame a = reuse.next();
    const StreamFrame b = naive.next();
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.depth_refreshed, b.depth_refreshed);
    expect_bitwise_equal(a.rgb, b.rgb, "rgb frame " + std::to_string(i));
    expect_bitwise_equal(a.depth, b.depth,
                         "depth frame " + std::to_string(i));
  }
}

TEST(StreamGenerator, DepthIsStaleBetweenLidarRefreshes) {
  StreamGenerator generator(small_stream());
  const StreamFrame f0 = generator.next();
  const StreamFrame f1 = generator.next();
  const StreamFrame f2 = generator.next();
  const StreamFrame f3 = generator.next();
  EXPECT_TRUE(f0.depth_refreshed);
  EXPECT_FALSE(f1.depth_refreshed);
  EXPECT_FALSE(f2.depth_refreshed);
  EXPECT_TRUE(f3.depth_refreshed);
  expect_bitwise_equal(f0.depth, f1.depth, "stale depth frame 1");
  expect_bitwise_equal(f0.depth, f2.depth, "stale depth frame 2");
  EXPECT_FALSE(bitwise_equal(f0.depth, f3.depth))
      << "a LiDAR refresh must produce a new depth image";
  // The camera runs at frame rate: RGB changes every frame.
  EXPECT_FALSE(bitwise_equal(f0.rgb, f1.rgb));
}

TEST(StreamModel, PredictStreamIsBitwiseEqualAndHitsCache) {
  Rng rng(2022);
  roadseg::RoadSegNet net(small_net(), rng);
  net.set_training(false);
  net.prepare_inference();

  StreamGenerator generator(small_stream("fog:0.5"));
  roadseg::StreamFeatureCache cache;
  for (int i = 0; i < 7; ++i) {
    const StreamFrame frame = generator.next();
    const Tensor expected = graph_predict(net, frame.rgb, frame.depth, 1.0f);
    const Tensor streamed = net.predict_stream(
        frame.rgb, frame.depth, 1.0f, cache, !frame.depth_refreshed);
    expect_bitwise_equal(expected, streamed,
                         "frame " + std::to_string(i));
  }
  // Period 3 over 7 frames: refreshes at 0, 3, 6 → 3 misses, 4 hits.
  EXPECT_EQ(cache.misses, 3);
  EXPECT_EQ(cache.hits, 4);
}

TEST(StreamModel, SteadyStateStreamingAllocatesNothing) {
  Rng rng(2022);
  roadseg::RoadSegNet net(small_net(), rng);
  net.set_training(false);
  net.prepare_inference();

  StreamGenerator generator(small_stream());
  roadseg::StreamFeatureCache cache;
  // Warm up one full LiDAR period: populates the cache, the per-thread
  // workspace arena and the cache tensors' heap buffers.
  std::vector<StreamFrame> frames;
  for (int i = 0; i < 8; ++i) {
    frames.push_back(generator.next());
  }
  for (int i = 0; i < 4; ++i) {
    (void)net.predict_stream(frames[i].rgb, frames[i].depth, 1.0f, cache,
                             !frames[i].depth_refreshed);
  }
  // Steady state: both the cache-hit frames and the refresh frames (which
  // repopulate the cache in place) must be heap-silent.
  for (int i = 4; i < 8; ++i) {
    const testhooks::AllocProbe probe;
    (void)net.predict_stream(frames[i].rgb, frames[i].depth, 1.0f, cache,
                             !frames[i].depth_refreshed);
    EXPECT_EQ(probe.allocations(), 0u)
        << "frame " << i << " (refresh=" << frames[i].depth_refreshed
        << ") allocated on the serving thread";
  }
}

TEST(StreamModel, RgbDependentSchemeFallsBackCorrectly) {
  // AllFilter_B's depth branch consumes RGB features, so stale depth
  // features cannot be reused; the stream path must fall back to the full
  // forward and stay bit-identical.
  Rng rng(5);
  roadseg::RoadSegNet net(small_net(core::FusionScheme::kAllFilterB), rng);
  net.set_training(false);
  net.prepare_inference();

  StreamGenerator generator(small_stream());
  roadseg::StreamFeatureCache cache;
  for (int i = 0; i < 4; ++i) {
    const StreamFrame frame = generator.next();
    const Tensor expected = graph_predict(net, frame.rgb, frame.depth, 1.0f);
    const Tensor streamed = net.predict_stream(
        frame.rgb, frame.depth, 1.0f, cache, !frame.depth_refreshed);
    expect_bitwise_equal(expected, streamed,
                         "AB frame " + std::to_string(i));
  }
  EXPECT_EQ(cache.hits, 0) << "AB must never claim a cache hit";
  EXPECT_FALSE(cache.valid);
}

TEST(StreamSession, RoundTripThroughFrontDoorIsBitwiseEqual) {
  Rng rng(2022);
  roadseg::RoadSegNet net(small_net(), rng);
  net.set_training(false);

  const StreamConfig stream_cfg = small_stream("fog:0.5+night:0.4");
  serve::FrontDoorConfig door_cfg;
  door_cfg.shards = 1;

  std::vector<StreamFrameResult> results;
  StreamSessionStats stats;
  {
    serve::FrontDoor door(net, door_cfg);
    StreamGenerator generator(stream_cfg);
    StreamSessionConfig session_cfg;
    session_cfg.scenario = "fog+night";
    StreamSession session(door, generator, session_cfg);
    results = session.run(7);
    stats = session.stats();
    door.shutdown();
  }
  ASSERT_EQ(results.size(), 7u);
  EXPECT_EQ(stats.frames, 7);
  EXPECT_EQ(stats.degraded_frames, 0);
  // Refreshes at frames 0, 3, 6 — everything else rode the cache.
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_hits, 4);

  // Replay the identical stream naively and compare against independent
  // per-frame inference: the serving round trip must be invisible.
  StreamConfig naive_cfg = stream_cfg;
  naive_cfg.frame_to_frame_reuse = false;
  StreamGenerator reference(naive_cfg);
  for (const StreamFrameResult& result : results) {
    const StreamFrame frame = reference.next();
    EXPECT_FALSE(result.degraded);
    const Tensor expected = graph_predict(net, frame.rgb, frame.depth, 1.0f);
    expect_bitwise_equal(expected, result.output,
                         "frame " + std::to_string(result.index));
  }
}

TEST(StreamSession, NaiveGeneratorSubmitsWithoutTheCache) {
  Rng rng(2022);
  roadseg::RoadSegNet net(small_net(), rng);
  net.set_training(false);

  StreamConfig naive_cfg = small_stream("fog:0.5");
  naive_cfg.frame_to_frame_reuse = false;
  serve::FrontDoorConfig door_cfg;
  door_cfg.shards = 1;
  serve::FrontDoor door(net, door_cfg);
  StreamGenerator generator(naive_cfg);
  StreamSession session(door, generator, StreamSessionConfig{});
  const std::vector<StreamFrameResult> results = session.run(4);
  door.shutdown();
  EXPECT_EQ(session.stats().cache_hits, 0);
  EXPECT_EQ(session.stats().cache_misses, 0);

  StreamGenerator reference(naive_cfg);
  for (const StreamFrameResult& result : results) {
    const StreamFrame frame = reference.next();
    const Tensor expected = graph_predict(net, frame.rgb, frame.depth, 1.0f);
    expect_bitwise_equal(expected, result.output,
                         "naive frame " + std::to_string(result.index));
  }
}

TEST(StreamSession, DropoutStreamServesDegradedRgbOnly) {
  Rng rng(2022);
  roadseg::RoadSegNet net(small_net(), rng);
  net.set_training(false);

  serve::FrontDoorConfig door_cfg;
  door_cfg.shards = 1;
  serve::FrontDoor door(net, door_cfg);
  StreamGenerator generator(small_stream("dropout:0.85"));
  StreamSessionConfig session_cfg;
  session_cfg.scenario = "dropout";
  StreamSession session(door, generator, session_cfg);
  const std::vector<StreamFrameResult> results = session.run(4);
  door.shutdown();

  StreamConfig naive_cfg = small_stream("dropout:0.85");
  naive_cfg.frame_to_frame_reuse = false;
  StreamGenerator reference(naive_cfg);
  for (const StreamFrameResult& result : results) {
    const StreamFrame frame = reference.next();
    EXPECT_TRUE(result.degraded)
        << "a >60%-dead depth image must route degraded, not error";
    const Tensor expected = graph_predict(net, frame.rgb, frame.depth, 0.0f);
    expect_bitwise_equal(expected, result.output,
                         "degraded frame " + std::to_string(result.index));
  }
  EXPECT_EQ(session.stats().degraded_frames, 4);
}

}  // namespace
}  // namespace roadfusion::scenario
