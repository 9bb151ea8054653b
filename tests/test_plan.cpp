// Inference plan compiler suite (DESIGN.md §16): every eval-mode request
// kind — fused, RGB-only, stream miss, stream hit, batched, forced solver
// — must run a compiled plan whose logits are bit-for-bit those of the
// autograd graph (`forward_fused`), run allocation-free once compiled,
// label every all-NCHW run with its reason, keep its per-geometry cache
// bounded, and explain itself through the --explain-plan printer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hooks.hpp"
#include "autograd/variable.hpp"
#include "common/cpu.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "roadseg/plan_hook.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/tensor.hpp"
#include "tune/dispatch.hpp"

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
  Rng rng(12);
  RoadSegNet net(config_for(FusionScheme::kAllFilterB), rng);
  net.set_training(false);
  net.prepare_inference();
  const Tensor rgb = Tensor::normal(Shape::nchw(3, 3, 16, 32), rng);
  const Tensor depth = Tensor::normal(Shape::nchw(3, 1, 16, 32), rng);
  for (const float fw : {0.6f, 0.0f}) {
    expect_bitwise_equal(plan_logits(net, rgb, depth, fw),
                         graph_logits(net, rgb, depth, fw),
                         "AllFilter_B batch=3 fw=" + std::to_string(fw));
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
  // correct (re-populating) pass.
  const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 32, 48), rng);
  const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 32, 48), rng);
  expect_bitwise_equal(plan_logits(net, rgb, depth, 1.0f, &cache, true),
                       graph_logits(net, rgb, depth, 1.0f),
                       "stream geometry change");
  EXPECT_EQ(cache.misses, 2);
  EXPECT_EQ(cache.hits, 0);
}

TEST(PlanLayout, ForcedSolverRunsNchwWithReasonAndMatchesGraph) {
  install_hooks();
  obs::Counter& declined = counter("roadfusion_plan_declined_total");
  obs::Counter& forced =
      counter("roadfusion_plan_declined_total{reason=\"forced_solver\"}");
  for (const FusionScheme scheme : kSchemes) {
    for (const char* solver : {"blocked", "reference"}) {
      const std::string name =
          std::string(core::to_string(scheme)) + " forced " + solver;
      Rng rng(14);
      RoadSegNet net(config_for(scheme), rng);
      net.set_training(false);
      net.prepare_inference();
      const Tensor rgb = Tensor::normal(Shape::nchw(2, 3, 16, 32), rng);
      const Tensor depth = Tensor::normal(Shape::nchw(2, 1, 16, 32), rng);
      tune::force_solver(solver);
      const uint64_t declined_before = declined.value();
      const uint64_t forced_before = forced.value();
      const std::string report = explain(net, 2, 16, 32);
      StreamFeatureCache cache;
      std::vector<std::pair<Tensor, Tensor>> served;
      served.emplace_back(plan_logits(net, rgb, depth, 1.0f),
                          graph_logits(net, rgb, depth, 1.0f));
      served.emplace_back(plan_logits(net, rgb, depth, 0.0f),
                          graph_logits(net, rgb, depth, 0.0f));
      served.emplace_back(plan_logits(net, rgb, depth, 0.5f, &cache, false),
                          graph_logits(net, rgb, depth, 0.5f));
      served.emplace_back(plan_logits(net, rgb, depth, 1.0f, &cache, true),
                          graph_logits(net, rgb, depth, 1.0f));
      tune::force_solver("");
      EXPECT_EQ(declined.value(), declined_before + 4) << name;
      EXPECT_EQ(forced.value(), forced_before + 4) << name;
      EXPECT_EQ(cache.hits, scheme == FusionScheme::kAllFilterB ? 0 : 1)
          << name;
      EXPECT_NE(report.find("layout=nchw reason=forced_solver"),
                std::string::npos)
          << report;
      EXPECT_EQ(report.find("nchwc_direct"), std::string::npos) << report;
      for (size_t i = 0; i < served.size(); ++i) {
        expect_bitwise_equal(served[i].first, served[i].second,
                             name + " forced solver request " +
                                 std::to_string(i));
      }
      // Unforced, the same net serves the blocked layout again.
      const uint64_t after = declined.value();
      expect_bitwise_equal(plan_logits(net, rgb, depth, 1.0f),
                           graph_logits(net, rgb, depth, 1.0f),
                           name + " unforced");
      EXPECT_EQ(declined.value(), after) << name;
    }
  }
}

TEST(PlanLayout, DeepReductionRunsNchwWithKcReason) {
  install_hooks();
  RoadSegConfig config = config_for(FusionScheme::kAllFilterU);
  config.stage_channels = {6, 8, 48, 12};  // stage 3: 48 * 3 * 3 > kc
  Rng rng(21);
  RoadSegNet net(config, rng);
  net.set_training(false);
  const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 16, 32), rng);
  const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 16, 32), rng);
  obs::Counter& kc =
      counter("roadfusion_plan_declined_total{reason=\"kc_depth\"}");
  const uint64_t before = kc.value();
  expect_bitwise_equal(plan_logits(net, rgb, depth, 0.7f),
                       graph_logits(net, rgb, depth, 0.7f), "kc-deep net");
  EXPECT_EQ(kc.value(), before + 1);
  EXPECT_NE(explain(net, 1, 16, 32).find("reason=kc_depth"),
            std::string::npos);
}

TEST(PlanExplain, PrintsEveryScheduleWithLayoutsSolversAndSlots) {
  install_hooks();
  Rng rng(16);
  RoadSegNet net(config_for(FusionScheme::kAllFilterU), rng);
  net.set_training(false);
  net.prepare_inference();
  const std::string report = explain(net, 1, 32, 48);
  for (const char* needle :
       {"scheme=AllFilter_U variant=fused layout=nchwc8 reason=none",
        "variant=rgb_only", "variant=stream_miss", "variant=stream_hit",
        "layout=nchwc8", "solver=nchwc_direct", "epilogue=bn+relu",
        "epilogue=bn+residual+relu+fusion_sum", "to_nchwc", "to_nchw",
        "decoder", "free={", "d2r.stage1", "layer=rgb.stage0", "cached)"}) {
    EXPECT_NE(report.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << report;
  }
}

TEST(PlanExplain, PrintsKernelSelectionKnobsWithEffectiveValues) {
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
  const auto env_or_unset = [](const char* name) {
    const char* value = std::getenv(name);
    return std::string(value != nullptr && *value != '\0' ? value : "unset");
  };
  const std::string perf_db_env = env_or_unset("ROADFUSION_PERF_DB");
  const std::string cpu_env = env_or_unset("ROADFUSION_CPU_FEATURES");
  const common::CpuTier saved_tier = common::active_tier();
  ASSERT_TRUE(tune::forced_solver().empty());

  const std::string defaults = explain(net, 1, 16, 32);
  expect_line(defaults, "knob ROADFUSION_SOLVER=unset");
  expect_line(defaults, "knob ROADFUSION_PERF_DB=" + perf_db_env +
                            " records=" +
                            std::to_string(tune::perf_db_size()));
  expect_line(defaults, "knob ROADFUSION_CPU_FEATURES=" + cpu_env + " tier=" +
                            common::tier_name(saved_tier));
  // The knobs precede the first schedule.
  EXPECT_LT(defaults.find("knob ROADFUSION_CPU_FEATURES="),
            defaults.find("inference plan:"));

  // Each line reports what is in force, however it was set.
  tune::PerfDb db;
  db.set("conv-n1-c3-h16-w32-k4-r3-s3-st1-p1-fp32",
         tune::PerfRecord{"blocked", "", 1.0});
  db.set("conv-n1-c4-h16-w32-k4-r3-s3-st1-p1-fp32",
         tune::PerfRecord{"reference", "", 1.0});
  tune::set_perf_db(std::move(db));
  tune::force_solver("reference");
  common::set_active_tier(common::CpuTier::kScalar);
  const std::string forced = explain(net, 1, 16, 32);
  common::set_active_tier(saved_tier);
  tune::force_solver("");
  tune::clear_perf_db();
  expect_line(forced, "knob ROADFUSION_SOLVER=reference");
  expect_line(forced, "knob ROADFUSION_PERF_DB=" + perf_db_env + " records=2");
  expect_line(forced,
              "knob ROADFUSION_CPU_FEATURES=" + cpu_env + " tier=scalar");
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

TEST(PlanParity, EightStageNetFitsTheExecutorForEverySchemeAndSchedule) {
  install_hooks();
  obs::Counter& declined = counter("roadfusion_plan_declined_total");
  for (const FusionScheme scheme : kSchemes) {
    const std::string name = core::to_string(scheme);
    RoadSegConfig config = config_for(scheme);
    config.stage_channels = {4, 5, 6, 7, 8, 9, 10, 11};  // kMaxPlanStages
    Rng rng(24);
    RoadSegNet net(config, rng);
    net.set_training(false);
    const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 128, 128), rng);
    const uint64_t declined_before = declined.value();
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
      const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 128, 128), rng);
      expect_bitwise_equal(
          plan_logits(net, rgb, depth, request.fw, request.cache,
                      request.depth_unchanged),
          graph_logits(net, rgb, depth, request.fw),
          name + " 8 stages " + request.what);
    }
    EXPECT_EQ(declined.value(), declined_before) << name;
    EXPECT_EQ(cache.hits, scheme == FusionScheme::kAllFilterB ? 0 : 1)
        << name;
  }
}

TEST(PlanMetrics, ExplainMovesNoServingCounter) {
  install_hooks();
  Rng rng(25);
  RoadSegNet net(config_for(FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  obs::Counter& compiles = counter("roadfusion_plan_compiles_total");
  obs::Counter& nchwc = counter("roadfusion_plan_layers_total{layout=\"nchwc\"}");
  obs::Counter& nchw = counter("roadfusion_plan_layers_total{layout=\"nchw\"}");
  const uint64_t compiles_before = compiles.value();
  const uint64_t nchwc_before = nchwc.value();
  const uint64_t nchw_before = nchw.value();
  EXPECT_FALSE(explain(net, 1, 32, 48).empty());
  tune::force_solver("blocked");
  EXPECT_FALSE(explain(net, 1, 32, 48).empty());
  tune::force_solver("");
  EXPECT_EQ(compiles.value(), compiles_before);
  EXPECT_EQ(nchwc.value(), nchwc_before);
  EXPECT_EQ(nchw.value(), nchw_before);
}

TEST(PlanMetrics, BlockedCompilesScheduleNoNchwLayer) {
  install_hooks();
  obs::Counter& compiles = counter("roadfusion_plan_compiles_total");
  obs::Counter& nchwc = counter("roadfusion_plan_layers_total{layout=\"nchwc\"}");
  obs::Counter& nchw = counter("roadfusion_plan_layers_total{layout=\"nchw\"}");
  for (const FusionScheme scheme : kSchemes) {
    Rng rng(26);
    RoadSegNet net(config_for(scheme), rng);
    net.set_training(false);
    const Tensor rgb = Tensor::normal(Shape::nchw(1, 3, 16, 32), rng);
    const Tensor depth = Tensor::normal(Shape::nchw(1, 1, 16, 32), rng);
    const uint64_t compiles_before = compiles.value();
    const uint64_t nchwc_before = nchwc.value();
    const uint64_t nchw_before = nchw.value();
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
    EXPECT_GT(nchwc.value(), nchwc_before) << name;
    EXPECT_EQ(nchw.value(), nchw_before) << name;
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
