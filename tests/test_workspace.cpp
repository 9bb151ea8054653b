// Zero-allocation steady-state inference (DESIGN.md §11).
//
// Locks the pieces of the zero-allocation inference path together:
//  * bit-exactness — the compiled plan (DESIGN.md §16) serves every
//    eval-mode predict and produces the same float bits as the
//    Variable-graph path for every fusion scheme and fusion weight, under
//    the default solver bindings and the forced reference solver;
//  * the workspace arena — a second pass draws every block from it,
//    best-fit reuse serves smaller batches from a larger batch's arena,
//    and the plan's scratch block is sized by the largest batch seen;
//  * zero heap traffic — from the second predict on a thread onward, the
//    operator-new hook (tests/alloc_hooks.cpp) observes zero allocations;
//  * cache invalidation — a checkpoint reload rebuilds the pre-packed
//    weight cache, so serving never reads stale panels;
//  * the serving integration — engine workers run batches inside
//    per-worker arenas and results stay bit-identical to direct predict.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "alloc_hooks.hpp"
#include "autograd/ops.hpp"
#include "core/fusion_scheme.hpp"
#include "nn/module.hpp"
#include "obs/metrics.hpp"
#include "roadseg/roadseg_net.hpp"
#include "runtime/engine.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"
#include "tune/dispatch.hpp"

namespace roadfusion::roadseg {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;
using tensor::Workspace;
using tensor::WorkspaceScope;
using testhooks::reset_thread_alloc_counters;
using testhooks::thread_alloc_counters;

RoadSegConfig small_config(
    core::FusionScheme scheme = core::FusionScheme::kBaseline) {
  RoadSegConfig config;
  config.scheme = scheme;
  config.stage_channels = {6, 8, 10, 12, 16};
  return config;
}

struct Scene {
  Tensor rgb;
  Tensor depth;
};

Scene make_scene(uint64_t seed, int64_t height = 32, int64_t width = 48) {
  Rng rng(seed);
  return {Tensor::uniform(Shape::chw(3, height, width), rng),
          Tensor::uniform(Shape::chw(1, height, width), rng)};
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape().numel(), b.shape().numel()) << what;
  ASSERT_EQ(0, std::memcmp(a.raw(), b.raw(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what << ": float bits differ";
}

/// The Variable-graph predict path, independent of the compiled plan: the
/// op sequence predict runs for a model without a plan.
Tensor graph_predict(const RoadSegNet& net, const Scene& scene,
                     float fusion_weight) {
  const Tensor rgb4 = scene.rgb.reshaped(
      Shape::nchw(1, scene.rgb.shape().dim(0), scene.rgb.shape().dim(1),
                  scene.rgb.shape().dim(2)));
  const Tensor depth4 = scene.depth.reshaped(
      Shape::nchw(1, scene.depth.shape().dim(0), scene.depth.shape().dim(1),
                  scene.depth.shape().dim(2)));
  const ForwardResult result =
      net.forward_fused(autograd::Variable::constant(rgb4),
                        autograd::Variable::constant(depth4), fusion_weight);
  return autograd::sigmoid(result.logits).value();
}

/// Forces `solver` globally for a test body ("" = the heuristic
/// bindings) and clears the override on exit.
class SolverGuard {
 public:
  explicit SolverGuard(const std::string& solver) {
    tune::force_solver(solver);
  }
  ~SolverGuard() { tune::force_solver(""); }
};

/// The two solver configurations every bit-exactness check runs under:
/// the heuristic bindings and the scalar reference oracle.
constexpr const char* kSolverModes[] = {"", "reference"};

std::string solver_label(const std::string& solver) {
  return solver.empty() ? "heuristic" : solver;
}

// ---------------------------------------------------------------------------
// Bit-exactness of the compiled plan against the Variable graph
// ---------------------------------------------------------------------------

/// Requests the compiled plan has served with the given schedule.
uint64_t plan_runs(const std::string& variant) {
  return obs::MetricsRegistry::global()
      .counter("roadfusion_plan_runs_total{variant=\"" + variant + "\"}")
      .value();
}

TEST(PlannedInference, BitExactAcrossSchemesWeightsAndSolvers) {
  const Scene scene = make_scene(7);
  for (const char* solver : kSolverModes) {
    const SolverGuard guard(solver);
    for (const core::FusionScheme scheme : core::all_fusion_schemes()) {
      Rng rng(2022);
      RoadSegNet net(small_config(scheme), rng);
      net.set_training(false);
      for (const float weight : {1.0f, 0.5f, 0.0f}) {
        const std::string what = solver_label(solver) + "/scheme" +
                                 std::to_string(static_cast<int>(scheme)) +
                                 "/w" + std::to_string(weight);
        const std::string variant = weight == 0.0f ? "rgb_only" : "fused";
        const Tensor graph = graph_predict(net, scene, weight);
        const uint64_t served_before = plan_runs(variant);
        const Tensor planned =
            net.predict_fused(scene.rgb, scene.depth, weight);
        EXPECT_EQ(plan_runs(variant), served_before + 1)
            << what << ": the compiled plan must serve eval-mode predicts";
        const Tensor planned4 = planned.reshaped(graph.shape());
        expect_bitwise_equal(graph, planned4, what);
      }
    }
  }
}

TEST(PlannedInference, PlanServesOnlyInEvalMode) {
  Rng rng(3);
  RoadSegNet net(small_config(), rng);
  const Scene scene = make_scene(4);
  const uint64_t before = plan_runs("fused");
  EXPECT_EQ(net.inference_plan(), nullptr);  // fresh nets are training
  (void)net.predict(scene.rgb, scene.depth);
  EXPECT_EQ(plan_runs("fused"), before) << "training mode takes the graph";
  net.set_training(false);
  EXPECT_NE(net.inference_plan(), nullptr);
  (void)net.predict(scene.rgb, scene.depth);
  EXPECT_EQ(plan_runs("fused"), before + 1) << "eval mode runs the plan";
  net.set_training(true);
  EXPECT_EQ(net.inference_plan(), nullptr);
  (void)net.predict(scene.rgb, scene.depth);
  EXPECT_EQ(plan_runs("fused"), before + 1);
}

// ---------------------------------------------------------------------------
// Workspace arena
// ---------------------------------------------------------------------------

TEST(WorkspacePlanner, SecondPassDrawsEveryBlockFromTheArena) {
  Rng rng(11);
  RoadSegNet net(small_config(), rng);
  net.set_training(false);
  net.prepare_inference();
  const Scene scene = make_scene(5);

  Workspace workspace;
  const WorkspaceScope scope(workspace);
  (void)net.predict(scene.rgb, scene.depth);
  const uint64_t misses_after_first = workspace.stats().misses;
  EXPECT_GT(misses_after_first, 0u);  // first pass populates the arena
  (void)net.predict(scene.rgb, scene.depth);
  const auto stats = workspace.stats();
  EXPECT_EQ(stats.misses, misses_after_first)
      << "steady-state pass must allocate no new blocks";
  EXPECT_GT(stats.hits, 0u);
}

TEST(WorkspacePlanner, LargerBatchArenaServesSmallerBatches) {
  Rng rng(11);
  RoadSegNet net(small_config(), rng);
  net.set_training(false);
  net.prepare_inference();
  Rng scene_rng(5);
  const Tensor rgb4 = Tensor::uniform(Shape::nchw(4, 3, 32, 48), scene_rng);
  const Tensor depth4 = Tensor::uniform(Shape::nchw(4, 1, 32, 48), scene_rng);
  // The inputs live outside the arena: a blocked plan run leaves its
  // logits block behind, which an input drawn from the arena between
  // predicts would take.
  Rng small_rng(6);
  const Tensor rgb2 = Tensor::uniform(Shape::nchw(2, 3, 32, 48), small_rng);
  const Tensor depth2 = Tensor::uniform(Shape::nchw(2, 1, 32, 48), small_rng);
  const Scene single = make_scene(9);

  Workspace workspace;
  const WorkspaceScope scope(workspace);
  (void)net.predict(rgb4, depth4);
  const uint64_t misses_after_batch4 = workspace.stats().misses;

  // Smaller batches draw from the batch-4 blocks via best-fit: no growth.
  (void)net.predict(rgb2, depth2);
  (void)net.predict(single.rgb, single.depth);
  EXPECT_EQ(workspace.stats().misses, misses_after_batch4)
      << "smaller batches must reuse the larger batch's arena";
}

TEST(WorkspacePlanner, ScratchBlockIsReplacedByALargerRequest) {
  Workspace workspace;
  float* const first = workspace.scratch(100);
  EXPECT_EQ(workspace.scratch(60), first) << "a smaller request reuses it";
  (void)workspace.scratch(400);
  (void)workspace.scratch(200);
  const auto stats = workspace.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  // The outgrown 100-float block is gone, not kept beside the new one.
  EXPECT_EQ(stats.reserved_bytes, 400 * sizeof(float));
  EXPECT_EQ(stats.in_use_bytes, 400 * sizeof(float));
}

TEST(WorkspacePlanner, PlanScratchIsSizedByTheLargestBatchInAnyOrder) {
  Rng rng(11);
  RoadSegNet net(small_config(core::FusionScheme::kWeightedSharing), rng);
  net.set_training(false);
  net.prepare_inference();
  std::vector<Scene> batches;
  Rng scene_rng(5);
  for (int64_t n = 1; n <= 4; ++n) {
    batches.push_back(
        {Tensor::uniform(Shape::nchw(n, 3, 32, 48), scene_rng),
         Tensor::uniform(Shape::nchw(n, 1, 32, 48), scene_rng)});
  }
  // Serving sees batch sizes in whatever order requests pile up; the
  // blocked slots' footprint must not depend on it. Once every result is
  // dropped, the scratch block is all the arena still holds in use.
  const auto scratch_after = [&](const std::vector<int>& order,
                                 float weight) {
    Workspace workspace;
    const WorkspaceScope scope(workspace);
    for (int k : order) {
      const Scene& b = batches[static_cast<size_t>(k)];
      (void)net.predict_fused(b.rgb, b.depth, weight);
    }
    return workspace.stats().in_use_bytes;
  };
  for (const float weight : {1.0f, 0.0f}) {
    const size_t largest_only = scratch_after({3}, weight);
    EXPECT_GT(largest_only, 0u);
    EXPECT_EQ(scratch_after({0, 1, 2, 3}, weight), largest_only)
        << "weight " << weight;
    EXPECT_EQ(scratch_after({3, 0, 2, 1}, weight), largest_only)
        << "weight " << weight;
  }
}

// ---------------------------------------------------------------------------
// Zero heap allocations in the steady state
// ---------------------------------------------------------------------------

TEST(ZeroAllocation, SteadyStatePredictAllocatesNothing) {
  const Scene scene = make_scene(7);
  for (const char* solver : kSolverModes) {
    const SolverGuard guard(solver);
    for (const core::FusionScheme scheme :
         {core::FusionScheme::kBaseline,
          core::FusionScheme::kWeightedSharing}) {
      Rng rng(2022);
      RoadSegNet net(small_config(scheme), rng);
      net.set_training(false);
      net.prepare_inference();
      // Warm the per-thread arena (and any lazy statics) with two passes.
      const Tensor expected = net.predict(scene.rgb, scene.depth);
      (void)net.predict(scene.rgb, scene.depth);
      for (int pass = 0; pass < 3; ++pass) {
        reset_thread_alloc_counters();
        const Tensor out = net.predict(scene.rgb, scene.depth);
        const auto counters = thread_alloc_counters();
        EXPECT_EQ(counters.allocations, 0u)
            << solver_label(solver) << "/scheme" << static_cast<int>(scheme)
            << " pass "
            << pass << " allocated " << counters.allocations << " times ("
            << counters.bytes << " bytes)";
        expect_bitwise_equal(expected, out, "steady-state output");
      }
    }
  }
}

TEST(ZeroAllocation, DegradedRgbOnlyPredictAllocatesNothing) {
  Rng rng(2022);
  RoadSegNet net(small_config(), rng);
  net.set_training(false);
  net.prepare_inference();
  const Scene scene = make_scene(7);
  const Tensor expected = net.predict_fused(scene.rgb, scene.depth, 0.0f);
  (void)net.predict_fused(scene.rgb, scene.depth, 0.0f);
  reset_thread_alloc_counters();
  const Tensor out = net.predict_fused(scene.rgb, scene.depth, 0.0f);
  const auto counters = thread_alloc_counters();
  EXPECT_EQ(counters.allocations, 0u)
      << "RGB-only predict allocated " << counters.allocations << " times";
  expect_bitwise_equal(expected, out, "degraded output");
}

// ---------------------------------------------------------------------------
// Cache invalidation
// ---------------------------------------------------------------------------

TEST(PrepackCache, CheckpointReloadRebuildsPackedWeights) {
  const Scene scene = make_scene(7);
  Rng rng_a(1);
  RoadSegNet model_a(small_config(), rng_a);
  model_a.set_training(false);
  Rng rng_b(2);
  RoadSegNet model_b(small_config(), rng_b);
  model_b.set_training(false);

  // Warm model A's caches (packed panels of A's original weights)...
  const Tensor before = model_a.predict(scene.rgb, scene.depth);
  const Tensor b_output = model_b.predict(scene.rgb, scene.depth);
  ASSERT_NE(0, std::memcmp(before.raw(), b_output.raw(),
                           static_cast<size_t>(before.numel()) *
                               sizeof(float)));

  // ...then load B's weights into A. The epoch bump must invalidate the
  // packed cache, or A would keep serving its old weights.
  nn::restore_state(model_a, nn::snapshot_state(model_b));
  const Tensor after = model_a.predict(scene.rgb, scene.depth);
  expect_bitwise_equal(after, b_output, "post-reload predict");
}

TEST(PrepackCache, CountersAdvancePerSolver) {
  const Scene scene = make_scene(7);
  Rng rng(2022);
  RoadSegNet net(small_config(), rng);
  net.set_training(false);
  auto& registry = obs::MetricsRegistry::global();
  auto& hits = registry.counter("roadfusion_prepack_hits");
  auto& misses = registry.counter("roadfusion_prepack_misses");
  {
    // The blocked schedule runs every conv in the plan's own kernels.
    const uint64_t hits_before = hits.value();
    const uint64_t misses_before = misses.value();
    (void)net.predict(scene.rgb, scene.depth);
    EXPECT_EQ(hits.value(), hits_before);
    EXPECT_EQ(misses.value(), misses_before);
  }
  {
    const uint64_t hits_before = hits.value();
    (void)net.decoder().head().forward_infer(
        Tensor::uniform(Shape::nchw(1, 6, 32, 48), rng));
    EXPECT_GT(hits.value(), hits_before)
        << "a layer's default forward_infer must serve from the packed cache";
  }
  {
    const SolverGuard guard("reference");
    const uint64_t misses_before = misses.value();
    (void)net.predict(scene.rgb, scene.depth);
    EXPECT_GT(misses.value(), misses_before)
        << "forced-reference predict must count unpacked convs";
  }
}

TEST(ArenaMetrics, GaugesReflectLiveWorkspaces) {
  Rng rng(2022);
  RoadSegNet net(small_config(), rng);
  net.set_training(false);
  net.prepare_inference();
  const Scene scene = make_scene(7);

  Workspace workspace;
  {
    const WorkspaceScope scope(workspace);
    (void)net.predict(scene.rgb, scene.depth);
  }
  const auto totals = Workspace::global_stats();
  EXPECT_GE(totals.reserved_bytes, workspace.stats().reserved_bytes);
  EXPECT_GE(totals.peak_bytes, workspace.stats().peak_bytes);

  bool saw_reserved = false;
  bool saw_peak = false;
  for (const auto& metric : obs::MetricsRegistry::global().snapshot()) {
    if (metric.name == "roadfusion_arena_reserved_bytes") {
      saw_reserved = true;
      EXPECT_GE(metric.value,
                static_cast<double>(workspace.stats().reserved_bytes));
    }
    if (metric.name == "roadfusion_arena_peak_bytes") {
      saw_peak = true;
      EXPECT_GT(metric.value, 0.0);
    }
  }
  EXPECT_TRUE(saw_reserved);
  EXPECT_TRUE(saw_peak);
}

// ---------------------------------------------------------------------------
// Serving integration: per-worker arenas under concurrency
// ---------------------------------------------------------------------------

TEST(EngineIntegration, WorkersServeBitIdenticalResultsFromArenas) {
  Rng rng(2022);
  RoadSegNet net(small_config(), rng);
  runtime::EngineConfig config;
  config.threads = 2;
  config.max_batch = 2;
  runtime::InferenceEngine engine(net, config);

  constexpr int kScenes = 6;
  constexpr int kRounds = 3;  // later rounds run in warmed arenas
  std::vector<Scene> scenes;
  std::vector<Tensor> expected;
  for (int i = 0; i < kScenes; ++i) {
    scenes.push_back(make_scene(100 + static_cast<uint64_t>(i)));
    expected.push_back(net.predict(scenes.back().rgb, scenes.back().depth));
  }
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<runtime::InferenceResult>> futures;
    for (const Scene& scene : scenes) {
      futures.push_back(engine.submit(scene.rgb, scene.depth));
    }
    for (int i = 0; i < kScenes; ++i) {
      const runtime::InferenceResult result = futures[static_cast<size_t>(i)]
                                                  .get();
      EXPECT_FALSE(result.degraded);
      expect_bitwise_equal(
          expected[static_cast<size_t>(i)],
          result.output.reshaped(expected[static_cast<size_t>(i)].shape()),
          "engine round " + std::to_string(round));
    }
  }
  engine.shutdown();
}

}  // namespace
}  // namespace roadfusion::roadseg
