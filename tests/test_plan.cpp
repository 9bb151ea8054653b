// Inference plan compiler suite (DESIGN.md §16): every eval-mode request
// kind — fused, RGB-only, stream miss, stream hit, batched — must run a
// compiled plan whose logits are bit-for-bit those of the autograd graph
// (`forward_fused`) at any depth and width, run allocation-free once
// compiled, keep its per-geometry cache bounded, name its trace spans as
// explain names its layers, and explain itself through the --explain-plan
// printer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hooks.hpp"
#include "autograd/variable.hpp"
#include "common/cpu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/plan.hpp"
#include "roadseg/plan_hook.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/tensor.hpp"
#include "autograd/ops.hpp"

namespace roadfusion::plan {
namespace {

using core::FusionScheme;
using roadseg::RoadSegConfig;
using roadseg::RoadSegNet;
using roadseg::StreamFeatureCache;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

constexpr FusionScheme kSchemes[] = {
    FusionScheme::kBaseline, FusionScheme::kAllFilterU,
    FusionScheme::kAllFilterB, FusionScheme::kBaseSharing,
    FusionScheme::kWeightedSharing};

RoadSegConfig config_for(FusionScheme scheme) {
  RoadSegConfig config;
  config.scheme = scheme;
  config.stage_channels = {6, 8, 10, 12, 16};
  return config;
}

/// The oracle: the autograd graph's logits.
Tensor graph_logits(const RoadSegNet& net, const Tensor& rgb,
                    const Tensor& depth, float fusion_weight) {
  const autograd::InferenceModeGuard no_grad;
  return net
      .forward_fused(autograd::Variable::constant(rgb),
                     autograd::Variable::constant(depth), fusion_weight)
      .logits.value();
}

/// The plan's logits, through the same hook predict calls.
Tensor plan_logits(const RoadSegNet& net, const Tensor& rgb,
                   const Tensor& depth, float fusion_weight,
                   StreamFeatureCache* cache = nullptr,
                   bool depth_unchanged = false) {
  const std::shared_ptr<void> state = net.inference_plan();
  EXPECT_NE(state, nullptr) << "an eval-mode RoadSegNet must have a plan";
  return roadseg::plan_hooks().run(net, state, rgb, depth, fusion_weight,
                                   cache, depth_unchanged);
}

void expect_bitwise_equal(const Tensor& planned, const Tensor& graph,
                          const std::string& what) {
  ASSERT_EQ(planned.shape(), graph.shape()) << what;
  EXPECT_EQ(std::memcmp(planned.raw(), graph.raw(),
                        static_cast<size_t>(planned.numel()) * sizeof(float)),
            0)
      << what << ": planned output differs from the graph";
}

obs::Counter& counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name);
}

obs::Counter& runs(const char* variant) {
  return counter(std::string("roadfusion_plan_runs_total{variant=\"") +
                 variant + "\"}");
}

TEST(PlanParity, BitwiseIdenticalToGraphForEverySchemeAndWeight) {
  install_hooks();
  for (const FusionScheme scheme : kSchemes) {
    for (const float fw : {1.0f, 0.35f, 0.0f}) {
      Rng rng(11);
      RoadSegNet net(config_for(scheme), rng);
      net.set_training(false);
      net.prepare_inference();
      const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 32, 48), rng);
      const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 32, 48), rng);
      obs::Counter& served = runs(fw == 0.0f ? "rgb_only" : "fused");
      const uint64_t before = served.value();
      const Tensor planned = plan_logits(net, rgb, depth, fw);
      EXPECT_EQ(served.value(), before + 1);
      expect_bitwise_equal(planned, graph_logits(net, rgb, depth, fw),
                           std::string(core::to_string(scheme)) + " fw=" +
                               std::to_string(fw));
    }
  }
}

TEST(PlanParity, RgbOnlyNeverReadsDepthValues) {
  install_hooks();
  Rng rng(18);
  RoadSegNet net(config_for(FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 32, 48), rng);
  Tensor poisoned(Shape::nchw(1, 1, 32, 48));
  poisoned.fill(std::numeric_limits<float>::quiet_NaN());
  const Tensor planned = plan_logits(net, rgb, poisoned, 0.0f);
  expect_bitwise_equal(planned, graph_logits(net, rgb, poisoned, 0.0f),
                       "RGB-only with NaN depth");
  for (int64_t i = 0; i < planned.numel(); ++i) {
    ASSERT_EQ(planned.at(i), planned.at(i)) << "NaN leaked at " << i;
  }
}

TEST(PlanParity, BatchedInputsMatchGraph) {
  install_hooks();
  // WeightedSharing's AWN weighs each sample of the batch with its own
  // weight, on the blocked layout.
  for (const FusionScheme scheme : kSchemes) {
    Rng rng(12);
    RoadSegNet net(config_for(scheme), rng);
    net.set_training(false);
    net.prepare_inference();
    const Tensor rgb = Tensor::normal(Shape::nchw(3, 3, 16, 32), rng);
    const Tensor depth = Tensor::normal(Shape::nchw(3, 1, 16, 32), rng);
    for (const float fw : {0.6f, 0.0f}) {
      expect_bitwise_equal(plan_logits(net, rgb, depth, fw),
                           graph_logits(net, rgb, depth, fw),
                           std::string(core::to_string(scheme)) +
                               " batch=3 fw=" + std::to_string(fw));
    }
  }
}

TEST(PlanParity, GeometryChangeRecompilesAndStaysExact) {
  install_hooks();
  Rng rng(13);
  RoadSegNet net(config_for(FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  net.prepare_inference();
  for (const auto& [h, w] : {std::pair<int64_t, int64_t>{32, 48},
                            std::pair<int64_t, int64_t>{16, 16},
                            std::pair<int64_t, int64_t>{32, 48}}) {
    const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, h, w), rng);
    const Tensor depth = Tensor::normal(Shape::nchw(1, 1, h, w), rng);
    expect_bitwise_equal(plan_logits(net, rgb, depth, 1.0f),
                         graph_logits(net, rgb, depth, 1.0f),
                         "WeightedSharing geometry change");
  }
}

TEST(PlanStream, MissThenHitsMatchGraphForEveryScheme) {
  install_hooks();
  for (const FusionScheme scheme : kSchemes) {
    Rng rng(19);
    RoadSegNet net(config_for(scheme), rng);
    net.set_training(false);
    const Tensor depth = Tensor::normal(Shape::nchw(2, 1, 16, 32), rng);
    StreamFeatureCache cache;
    const uint64_t hits_before = runs("stream_hit").value();
    // Frame 0 populates the cache; frames 1-3 keep the depth and change
    // the camera image and the fusion weight.
    const float weights[] = {1.0f, 1.0f, 0.5f, 1.0f};
    for (int frame = 0; frame < 4; ++frame) {
      const Tensor rgb = Tensor::normal(Shape::nchw(2, 3, 16, 32), rng);
      const float fw = weights[frame];
      expect_bitwise_equal(
          plan_logits(net, rgb, depth, fw, &cache, frame > 0),
          graph_logits(net, rgb, depth, fw),
          std::string(core::to_string(scheme)) + " frame " +
              std::to_string(frame));
    }
    if (scheme == FusionScheme::kAllFilterB) {
      EXPECT_EQ(cache.hits, 0) << "AllFilter_B must never hit";
      EXPECT_FALSE(cache.valid);
    } else {
      EXPECT_EQ(cache.misses, 1) << core::to_string(scheme);
      EXPECT_EQ(cache.hits, 3) << core::to_string(scheme);
      EXPECT_EQ(runs("stream_hit").value(), hits_before + 3);
    }
  }
}

TEST(PlanStream, GeometryChangeIsAMissNotAStaleHit) {
  install_hooks();
  Rng rng(20);
  RoadSegNet net(config_for(FusionScheme::kBaseline), rng);
  net.set_training(false);
  StreamFeatureCache cache;
  const Tensor small_depth = Tensor::normal(Shape::nchw(1, 1, 16, 32), rng);
  (void)plan_logits(net, Tensor::normal(Shape::nchw(1, 3, 16, 32), rng),
                    small_depth, 1.0f, &cache, false);
  // A caller claiming unchanged depth at a new geometry still gets a
  // correct (re-populating) pass — also at the transposed geometry, whose
  // cached slots hold exactly as many floats.
  for (const auto& [h, w] : {std::pair<int64_t, int64_t>{32, 48},
                            std::pair<int64_t, int64_t>{48, 32}}) {
    const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, h, w), rng);
    const Tensor depth = Tensor::normal(Shape::nchw(1, 1, h, w), rng);
    expect_bitwise_equal(plan_logits(net, rgb, depth, 1.0f, &cache, true),
                         graph_logits(net, rgb, depth, 1.0f),
                         "stream geometry change to " + std::to_string(h) +
                             "x" + std::to_string(w));
  }
  EXPECT_EQ(cache.misses, 3);
  EXPECT_EQ(cache.hits, 0);
}

TEST(PlanParity, KcDeepNetsArePlannedAndMatchTheGraph) {
  install_hooks();
  // Reductions deeper than the GEMM's Kc block (384): rgb.stage2.conv2
  // reduces over 48 * 3 * 3 = 432, and decoder.up2 (a tconv) over 392
  // input channels.
  const std::vector<int64_t> nets[] = {{6, 8, 48, 12}, {4, 8, 392}};
  for (const std::vector<int64_t>& channels : nets) {
    RoadSegConfig config = config_for(FusionScheme::kAllFilterU);
    config.stage_channels = channels;
    Rng rng(21);
    RoadSegNet net(config, rng);
    net.set_training(false);
    const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 16, 32), rng);
    StreamFeatureCache cache;
    const struct {
      float fw;
      bool stream;
      bool depth_unchanged;
      const char* variant;
    } requests[] = {{0.7f, false, false, "fused"},
                    {0.0f, false, false, "rgb_only"},
                    {1.0f, true, false, "stream_miss"},
                    {1.0f, true, true, "stream_hit"}};
    for (const auto& request : requests) {
      const std::string what = "kc-deep net " +
                               std::to_string(channels.back()) + " " +
                               request.variant;
      const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 16, 32), rng);
      obs::Counter& served = runs(request.variant);
      const uint64_t before = served.value();
      const Tensor probs =
          request.stream ? net.predict_stream(rgb, depth, request.fw, cache,
                                              request.depth_unchanged)
                         : net.predict_fused(rgb, depth, request.fw);
      EXPECT_EQ(served.value(), before + 1) << what;
      const autograd::InferenceModeGuard no_grad;
      expect_bitwise_equal(
          probs,
          autograd::sigmoid(autograd::Variable::constant(
                                graph_logits(net, rgb, depth, request.fw)))
              .value(),
          what);
    }
    EXPECT_EQ(cache.hits, 1);
    const std::string report = explain(net, 1, 16, 32);
    for (const char* variant :
         {"variant=fused", "variant=rgb_only", "variant=stream_hit"}) {
      EXPECT_NE(report.find(variant), std::string::npos) << report;
    }
    EXPECT_FALSE(conv_steps(net, 1, 16, 32).empty());
  }
}

// A shared stage runs one pack for both branches, but each step keeps
// its own branch-qualified name, in explain and in conv_steps alike.
TEST(PlanExplain, SharedStageStepsNameTheirBranch) {
  install_hooks();
  for (const FusionScheme scheme :
       {FusionScheme::kBaseSharing, FusionScheme::kWeightedSharing}) {
    Rng rng(31);
    RoadSegConfig config;
    config.scheme = scheme;
    RoadSegNet net(config, rng);
    net.set_training(false);
    std::set<std::string> names;
    for (const ConvStep& step : conv_steps(net, 1, 32, 96)) {
      EXPECT_TRUE(names.insert(step.layer).second)
          << core::to_string(scheme) << ": step name " << step.layer
          << " repeats";
    }
    const int last = net.num_stages() - 1;
    ASSERT_TRUE(net.stage_is_shared(last));
    const std::string depth = "depth.stage" + std::to_string(last) + ".conv1";
    const std::string rgb = "rgb.stage" + std::to_string(last) + ".conv1";
    EXPECT_EQ(names.count(depth), 1u) << core::to_string(scheme);
    EXPECT_EQ(names.count(rgb), 1u) << core::to_string(scheme);
    EXPECT_NE(explain(net, 1, 32, 96).find("layer=" + depth + " "),
              std::string::npos);
  }
}

/// The distinct decoder.up* names in `names`.
std::set<std::string> decoder_up_names(const std::vector<std::string>& names) {
  std::set<std::string> out;
  for (const std::string& name : names) {
    if (name.rfind("decoder.up", 0) == 0) {
      out.insert(name);
    }
  }
  return out;
}

TEST(PlanTrace, DecoderSpansCarryExplainsLayerNames) {
  install_hooks();
  Rng rng(23);
  RoadSegNet net(RoadSegConfig{}, rng);
  net.set_training(false);
  const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 32, 96), rng);
  const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 32, 96), rng);
  std::vector<std::string> layers;
  for (const ConvStep& step : conv_steps(net, 1, 32, 96)) {
    layers.push_back(step.layer);
  }
  const std::set<std::string> explained = decoder_up_names(layers);
  ASSERT_EQ(explained.size(), 4u);
  // One traced run per path: the plan's predict and the graph oracle.
  const std::function<void()> paths[] = {
      [&] { (void)net.predict(rgb, depth); },
      [&] { (void)graph_logits(net, rgb, depth, 1.0f); }};
  for (size_t path = 0; path < 2; ++path) {
    obs::reset_tracing();
    obs::set_tracing_enabled(true);
    paths[path]();
    obs::set_tracing_enabled(false);
    std::vector<std::string> spans;
    for (const obs::TraceEvent& event : obs::collect_events()) {
      spans.emplace_back(event.name);
    }
    obs::reset_tracing();
    EXPECT_EQ(decoder_up_names(spans), explained)
        << (path == 0 ? "planned" : "graph") << " predict";
  }
}

TEST(PlanExplain, PrintsEveryScheduleWithLayoutsSolversAndSlots) {
  install_hooks();
  Rng rng(16);
  RoadSegNet net(config_for(FusionScheme::kAllFilterU), rng);
  net.set_training(false);
  net.prepare_inference();
  const std::string report = explain(net, 1, 32, 48);
  for (const char* needle :
       {"scheme=AllFilter_U variant=fused input=1x3x32x48",
        "variant=rgb_only", "variant=stream_miss", "variant=stream_hit",
        "layout=nchwc8", "solver=nchwc_direct", "epilogue=bn+relu",
        "epilogue=bn+residual+relu+fusion_sum", "to_nchwc", "to_nchw",
        "decoder", "free={", "d2r.stage1", "layer=rgb.stage0", "cached)"}) {
    EXPECT_NE(report.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << report;
  }
}

TEST(PlanExplain, OnlyTheOutputLeavesTheBlockedLayout) {
  install_hooks();
  for (const FusionScheme scheme : kSchemes) {
    Rng rng(22);
    RoadSegNet net(config_for(scheme), rng);
    net.set_training(false);
    const std::string report = explain(net, 2, 32, 48);
    // Split the report into its schedules, one "inference plan:" header
    // each; every line below a header is one step.
    std::vector<std::vector<std::string>> schedules;
    size_t at = 0;
    while (at < report.size()) {
      const size_t end = report.find('\n', at);
      const std::string line = report.substr(at, end - at);
      at = end == std::string::npos ? report.size() : end + 1;
      if (line.rfind("inference plan:", 0) == 0) {
        schedules.emplace_back();
      } else if (!schedules.empty()) {
        schedules.back().push_back(line);
      }
    }
    const std::string name = core::to_string(scheme);
    EXPECT_EQ(schedules.size(), scheme == FusionScheme::kAllFilterB ? 2u : 4u)
        << name;
    for (const std::vector<std::string>& steps : schedules) {
      ASSERT_FALSE(steps.empty()) << name;
      int to_nchw = 0;
      for (const std::string& step : steps) {
        EXPECT_EQ(step.find(" nchw)"), std::string::npos)
            << name << " prints an NCHW slot: " << step;
        to_nchw += step.find("] to_nchw ") != std::string::npos ? 1 : 0;
      }
      EXPECT_EQ(to_nchw, 1) << name;
      EXPECT_NE(steps.back().find("] to_nchw "), std::string::npos)
          << name << " ends with: " << steps.back();
    }
  }
}

TEST(PlanExplain, PrintsTheKernelSelectionKnobWithItsEffectiveValue) {
  install_hooks();
  Rng rng(17);
  RoadSegNet net(config_for(FusionScheme::kBaseline), rng);
  net.set_training(false);
  const auto expect_line = [](const std::string& report,
                              const std::string& line) {
    EXPECT_NE(report.find(line + "\n"), std::string::npos)
        << "missing '" << line << "' in:\n"
        << report;
  };
  const char* env = std::getenv("ROADFUSION_CPU_FEATURES");
  const std::string cpu_env(env != nullptr && *env != '\0' ? env : "unset");
  const common::CpuTier saved_tier = common::active_tier();

  const std::string defaults = explain(net, 1, 16, 32);
  expect_line(defaults, "knob ROADFUSION_CPU_FEATURES=" + cpu_env + " tier=" +
                            common::tier_name(saved_tier));
  // The knob precedes the first schedule, and it is the only one.
  EXPECT_LT(defaults.find("knob ROADFUSION_CPU_FEATURES="),
            defaults.find("inference plan:"));
  EXPECT_EQ(defaults.find("knob ROADFUSION_CPU_FEATURES="),
            defaults.rfind("knob "));
  EXPECT_EQ(defaults.find("ROADFUSION_SOLVER"), std::string::npos);
  EXPECT_EQ(defaults.find("ROADFUSION_PERF_DB"), std::string::npos);

  // The line reports the tier in force, however it was set.
  common::set_active_tier(common::CpuTier::kScalar);
  const std::string clamped = explain(net, 1, 16, 32);
  common::set_active_tier(saved_tier);
  expect_line(clamped,
              "knob ROADFUSION_CPU_FEATURES=" + cpu_env + " tier=scalar");
}

TEST(PlanExplain, PrintsEachBlockedConvStepsTile) {
  install_hooks();
  Rng rng(19);
  RoadSegNet net(config_for(FusionScheme::kBaseline), rng);
  net.set_training(false);
  // The first schedule line of `layer`, from its kind to its name.
  const auto step_line = [](const std::string& report,
                            const std::string& layer) {
    const size_t at = report.find(" layer=" + layer + " ");
    if (at == std::string::npos) {
      return std::string("<no step for ") + layer + ">";
    }
    const size_t start = report.rfind("] ", at) + 2;
    return report.substr(start, at + layer.size() + 7 - start);
  };
  const common::CpuTier saved_tier = common::active_tier();
  for (const common::CpuTier tier :
       {common::CpuTier::kScalar, common::CpuTier::kAvx2}) {
    common::set_active_tier(tier);
    if (common::active_tier() != tier) {
      continue;  // host without AVX2
    }
    const bool avx2 = tier == common::CpuTier::kAvx2;
    const std::string blocked = std::string("layout=nchwc8 solver=") +
                                (avx2 ? "nchwc_direct_avx2" : "nchwc_direct") +
                                " tile=";
    const std::string window = avx2 ? "window 1x8" : "scalar";
    const std::string report = explain(net, 1, 32, 96);
    // A stem, a stride-2 stage conv and the full-resolution refine run
    // the 3x3 sliding window; the stage-2 projection (10 channels, two
    // blocks) shares each broadcast across both.
    EXPECT_EQ(step_line(report, "rgb.stage0"),
              "conv3x3/s1   " + blocked + window + " layer=rgb.stage0");
    EXPECT_EQ(step_line(report, "rgb.stage1.conv1"),
              "conv3x3/s2   " + blocked + window + " layer=rgb.stage1.conv1");
    EXPECT_EQ(step_line(report, "decoder.refine1"),
              "conv3x3/s1   " + blocked + window + " layer=decoder.refine1");
    EXPECT_EQ(step_line(report, "rgb.stage2.proj"),
              "conv1x1/s2   " + blocked + (avx2 ? "1x1 2x6" : "scalar") +
                  " layer=rgb.stage2.proj");
  }
  common::set_active_tier(saved_tier);
}

TEST(PlanCache, GeometrySweepStaysBoundedAndExact) {
  install_hooks();
  Rng rng(23);
  RoadSegNet net(config_for(FusionScheme::kBaseSharing), rng);
  net.set_training(false);
  std::vector<std::pair<Tensor, Tensor>> inputs;
  for (int64_t h = 16; h <= 64; h += 16) {
    for (int64_t w = 16; w <= 96; w += 16) {
      inputs.emplace_back(Tensor::normal(Shape::nchw(1, 3, h, w), rng),
                          Tensor::normal(Shape::nchw(1, 1, h, w), rng));
    }
  }
  obs::Counter& compiles = counter("roadfusion_plan_compiles_total");
  obs::Counter& evictions = counter("roadfusion_plan_evictions_total");
  const uint64_t compiles_before = compiles.value();
  const uint64_t evictions_before = evictions.value();
  // Schedules this net holds: compiled minus evicted.
  const auto cached = [&] {
    return (compiles.value() - compiles_before) -
           (evictions.value() - evictions_before);
  };
  std::vector<Tensor> first;
  for (const auto& [rgb, depth] : inputs) {
    first.push_back(plan_logits(net, rgb, depth, 1.0f));
    EXPECT_LE(cached(), 16u);
  }
  EXPECT_EQ(cached(), 16u);
  // The early geometries were evicted; recompiling them is exact.
  for (size_t i = 0; i < inputs.size(); ++i) {
    expect_bitwise_equal(
        plan_logits(net, inputs[i].first, inputs[i].second, 1.0f), first[i],
        "recompiled geometry " + std::to_string(i));
  }
  EXPECT_EQ(cached(), 16u);
  EXPECT_GT(evictions.value() - evictions_before, inputs.size());
}

TEST(PlanParity, DeepNetsMatchTheGraphForEverySchemeAndSchedule) {
  install_hooks();
  const struct {
    std::vector<int64_t> channels;
    int64_t extent;
  } nets[] = {{{4, 5, 6, 7, 8, 9, 10, 11}, 128},
              {{2, 2, 2, 2, 2, 2, 2, 2, 2}, 256}};
  for (const FusionScheme scheme : kSchemes) {
    for (const auto& deep : nets) {
      const std::string name = std::string(core::to_string(scheme)) + " " +
                               std::to_string(deep.channels.size()) +
                               " stages ";
      RoadSegConfig config = config_for(scheme);
      config.stage_channels = deep.channels;
      Rng rng(24);
      RoadSegNet net(config, rng);
      net.set_training(false);
      const Shape rgb_shape = Shape::nchw(1, 3, deep.extent, deep.extent);
      const Tensor depth =
          Tensor::normal(Shape::nchw(1, 1, deep.extent, deep.extent), rng);
      StreamFeatureCache cache;
      const struct {
        float fw;
        StreamFeatureCache* cache;
        bool depth_unchanged;
        const char* what;
      } requests[] = {{1.0f, nullptr, false, "fused"},
                      {0.0f, nullptr, false, "rgb_only"},
                      {0.5f, &cache, false, "stream_miss"},
                      {1.0f, &cache, true, "stream_hit"}};
      for (const auto& request : requests) {
        const Tensor rgb = Tensor::normal(rgb_shape, rng);
        expect_bitwise_equal(
            plan_logits(net, rgb, depth, request.fw, request.cache,
                        request.depth_unchanged),
            graph_logits(net, rgb, depth, request.fw), name + request.what);
      }
      EXPECT_EQ(cache.hits, scheme == FusionScheme::kAllFilterB ? 0 : 1)
          << name;
    }
  }
}

TEST(PlanMetrics, ExplainMovesNoServingCounter) {
  install_hooks();
  Rng rng(25);
  RoadSegNet net(config_for(FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  obs::Counter& compiles = counter("roadfusion_plan_compiles_total");
  obs::Counter& layers = counter("roadfusion_plan_layers_total");
  const uint64_t compiles_before = compiles.value();
  const uint64_t layers_before = layers.value();
  EXPECT_FALSE(explain(net, 1, 32, 48).empty());
  EXPECT_FALSE(conv_steps(net, 1, 32, 48).empty());
  EXPECT_EQ(compiles.value(), compiles_before);
  EXPECT_EQ(layers.value(), layers_before);
}

TEST(PlanMetrics, CompilesCountScheduledLayers) {
  install_hooks();
  obs::Counter& compiles = counter("roadfusion_plan_compiles_total");
  obs::Counter& layers = counter("roadfusion_plan_layers_total");
  for (const FusionScheme scheme : kSchemes) {
    Rng rng(26);
    RoadSegNet net(config_for(scheme), rng);
    net.set_training(false);
    const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 16, 32), rng);
    const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 16, 32), rng);
    const uint64_t compiles_before = compiles.value();
    const uint64_t layers_before = layers.value();
    StreamFeatureCache cache;
    (void)plan_logits(net, rgb, depth, 1.0f);
    (void)plan_logits(net, rgb, depth, 0.0f);
    (void)plan_logits(net, rgb, depth, 1.0f, &cache, false);
    (void)plan_logits(net, rgb, depth, 1.0f, &cache, true);
    const std::string name = core::to_string(scheme);
    // fused + rgb_only, plus stream miss and hit where the scheme caches.
    EXPECT_EQ(compiles.value() - compiles_before,
              scheme == FusionScheme::kAllFilterB ? 2u : 4u)
        << name;
    EXPECT_GT(layers.value(), layers_before) << name;
  }
}

TEST(PlanZeroAlloc, SteadyStatePredictsAreAllocationFree) {
  install_hooks();
  Rng rng(17);
  RoadSegNet net(config_for(FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  net.prepare_inference();
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 32, 48), rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 32, 48), rng);
  StreamFeatureCache cache;
  const std::pair<const char*, std::function<Tensor()>> requests[] = {
      {"fused", [&] { return net.predict(rgb, depth); }},
      {"rgb_only", [&] { return net.predict_fused(rgb, depth, 0.0f); }},
      {"stream_hit",
       [&] { return net.predict_stream(rgb, depth, 1.0f, cache, true); }},
  };
  for (const auto& [name, request] : requests) {
    // The first request compiles the plan and grows the thread arena;
    // the second settles any free-list reshuffling. From then on: zero
    // heap.
    Tensor warm = request();
    warm = request();
    testhooks::AllocProbe probe;
    const Tensor out = request();
    EXPECT_EQ(probe.allocations(), 0u)
        << name << " predict allocated " << probe.bytes() << " bytes";
    EXPECT_TRUE(out.allclose(warm, 0.0f)) << name;
  }
  EXPECT_GT(cache.hits, 0);
}

}  // namespace
}  // namespace roadfusion::plan
