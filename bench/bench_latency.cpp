// Inference latency per fusion scheme (supporting measurement).
//
// The paper makes two runtime claims this bench quantifies:
//  * the Feature Disparity loss is training-only, so it "does not affect
//    the inference latency" — shown by timing the same architecture
//    trained with and without the loss;
//  * Fusion-filters add inference work (Sec. IV-B), while Layer-sharing
//    does not change MACs — shown by the per-scheme latency table.
//
// Since DESIGN.md §11 it also quantifies the zero-allocation steady
// state: the graph predict path (Variable graph, per-call heap
// allocations) against the compiled inference plan (DESIGN.md §16:
// blocked NCHWc8 layout, fused cross-layer epilogues, minimal buffer
// schedule inside a workspace arena) — the one path that serves every
// eval-mode request — for the three request kinds the plan compiles:
// fused, RGB-only (fusion weight 0) and a stream cache hit, plus the
// graph and the plan on a paper-width net ({16,32,64,128,256} channels at
// 64x192, the `_wide` rows), whose deep reductions the plan serves like
// the default net's. Per-call
// heap-allocation counts come from the operator-new hooks in
// tests/alloc_hooks.cpp. The JSON records the host (active CPU feature
// tier, hardware concurrency) plus every conv step of the compiled fused
// schedule with the kernel it runs.
//
// Flags:
//   --smoke        seconds-fast mode: path comparison only, few repeats,
//                  an untrained (seeded) model — used by tools/run_tier1.sh
//   --json FILE    also write the machine-readable result (the committed
//                  BENCH_latency.json) to FILE
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hooks.hpp"
#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "bench_common.hpp"
#include "common/cpu.hpp"
#include "kitti/depth_preproc.hpp"
#include "kitti/lidar.hpp"
#include "plan/plan.hpp"
#include "tensor/shape.hpp"

namespace {

using namespace roadfusion;
using Clock = std::chrono::steady_clock;

/// Mean per-image predict() latency in milliseconds.
double measure_latency_ms(roadseg::SegmentationModel& net,
                          const kitti::Sample& sample, int repeats) {
  net.set_training(false);
  // Warm-up (first call touches cold caches).
  (void)net.predict(sample.rgb, sample.depth);
  const auto start = Clock::now();
  for (int i = 0; i < repeats; ++i) {
    (void)net.predict(sample.rgb, sample.depth);
  }
  const auto stop = Clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count() /
         repeats;
}

/// The graph predict path — what `predict` runs for a model without a
/// plan: build the Variable graph with grad mode off (as every served
/// predict does), sigmoid, reshape.
tensor::Tensor graph_predict(const roadseg::SegmentationModel& net,
                             const tensor::Tensor& rgb,
                             const tensor::Tensor& depth) {
  const autograd::InferenceModeGuard no_grad;
  const tensor::Tensor rgb4 = rgb.reshaped(tensor::Shape::nchw(
      1, rgb.shape().dim(0), rgb.shape().dim(1), rgb.shape().dim(2)));
  const tensor::Tensor depth4 = depth.reshaped(tensor::Shape::nchw(
      1, depth.shape().dim(0), depth.shape().dim(1), depth.shape().dim(2)));
  const roadseg::ForwardResult result =
      net.forward_fused(autograd::Variable::constant(rgb4),
                        autograd::Variable::constant(depth4), 1.0f);
  return autograd::sigmoid(result.logits).value();
}

/// One path cell of the steady-state comparison.
struct PathMeasurement {
  double latency_ms = 0.0;
  double allocs_per_call = 0.0;
  double bytes_per_call = 0.0;
};

template <typename Fn>
PathMeasurement measure_path(Fn&& call, int repeats) {
  // Two warm-up calls: the first populates caches/arenas, the second
  // proves the workload fits them.
  call();
  call();
  testhooks::reset_thread_alloc_counters();
  const auto start = Clock::now();
  for (int i = 0; i < repeats; ++i) {
    call();
  }
  const auto stop = Clock::now();
  const testhooks::AllocCounters counters = testhooks::thread_alloc_counters();
  PathMeasurement m;
  m.latency_ms =
      std::chrono::duration<double, std::milli>(stop - start).count() /
      repeats;
  m.allocs_per_call =
      static_cast<double>(counters.allocations) / repeats;
  m.bytes_per_call = static_cast<double>(counters.bytes) / repeats;
  return m;
}

struct PathRow {
  std::string path;
  PathMeasurement m;
};

/// The depth front end's rows at one geometry: projecting a LiDAR scan,
/// and preprocess_depth on that scan and on an empty one (every beam
/// lost, as the RGB-only frames serve).
void front_end_rows(int64_t height, int64_t width, int repeats,
                    std::vector<PathRow>& rows) {
  const kitti::DatasetConfig d;
  const vision::Camera camera(width, height, d.fov_deg, d.cam_height,
                              d.cam_pitch);
  const kitti::Scene scene = kitti::Scene::generate(
      kitti::RoadCategory::kUMM, kitti::Lighting::kDay, 3);
  tensor::Rng rng(3);
  const std::vector<kitti::LidarPoint> points =
      kitti::scan(scene, kitti::LidarConfig{}, rng);
  const tensor::Tensor sparse = kitti::project_to_sparse_depth(points, camera);
  const tensor::Tensor empty(sparse.shape());
  const kitti::DepthPreprocConfig preproc;
  const std::string size =
      "_" + std::to_string(height) + "x" + std::to_string(width);
  rows.push_back(
      {"project" + size,
       measure_path(
           [&] { (void)kitti::project_to_sparse_depth(points, camera); },
           repeats)});
  rows.push_back(
      {"preprocess_scan" + size,
       measure_path([&] { (void)kitti::preprocess_depth(sparse, preproc); },
                    repeats)});
  rows.push_back(
      {"preprocess_empty" + size,
       measure_path([&] { (void)kitti::preprocess_depth(empty, preproc); },
                    repeats)});
}

}  // namespace

int main(int argc, char** argv) {
  using bench::fmt;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_latency [--smoke] [--json FILE]\n");
      return 2;
    }
  }

  // Referencing the plan library installs the inference-plan hooks at
  // static init; the explicit call keeps that independent of link-order
  // details.
  plan::install_hooks();

  const bench::BenchSettings config = bench::settings();
  bench::print_header(
      "Inference latency per fusion scheme",
      "single-core per-image forward latency; FD loss is training-only");

  // -------------------------------------------------------------------
  // Steady-state path comparison (DESIGN.md §11, §16): graph vs the
  // compiled plan's request kinds, with per-call heap-allocation counts. Weight values do not affect latency, so a
  // seeded untrained model keeps this section deterministic and
  // cache-independent.
  // -------------------------------------------------------------------
  const int path_repeats = smoke ? 5 : 50;
  const int64_t height = config.test_data.image_height;
  const int64_t width = config.test_data.image_width;
  tensor::Rng scene_rng(7);
  const tensor::Tensor rgb =
      tensor::Tensor::uniform(tensor::Shape::chw(3, height, width), scene_rng);
  const tensor::Tensor depth =
      tensor::Tensor::uniform(tensor::Shape::chw(1, height, width), scene_rng);
  tensor::Rng model_rng(2022);
  roadseg::RoadSegNet net(config.net, model_rng);
  net.set_training(false);
  net.prepare_inference();
  roadseg::StreamFeatureCache cache;

  std::vector<PathRow> rows;
  rows.push_back({"graph",
                  measure_path([&] { (void)graph_predict(net, rgb, depth); },
                               path_repeats)});
  rows.push_back({"compiled",
                  measure_path([&] { (void)net.predict(rgb, depth); },
                               path_repeats)});
  rows.push_back(
      {"compiled_rgb_only",
       measure_path([&] { (void)net.predict_fused(rgb, depth, 0.0f); },
                    path_repeats)});
  // Unchanged depth: after the warm-up's first (missing) call every timed
  // call is a hit.
  rows.push_back(
      {"compiled_stream_hit",
       measure_path(
           [&] { (void)net.predict_stream(rgb, depth, 1.0f, cache, true); },
           path_repeats)});
  // The paper's RoadSeg baseline runs ResNet-width encoders: the same
  // pair of paths on such a net at twice the default geometry.
  const int64_t wide_height = 64;
  const int64_t wide_width = 192;
  roadseg::RoadSegConfig wide_config = config.net;
  wide_config.stage_channels = {16, 32, 64, 128, 256};
  roadseg::RoadSegNet wide(wide_config, model_rng);
  wide.set_training(false);
  wide.prepare_inference();
  const tensor::Tensor wide_rgb = tensor::Tensor::uniform(
      tensor::Shape::chw(3, wide_height, wide_width), scene_rng);
  const tensor::Tensor wide_depth = tensor::Tensor::uniform(
      tensor::Shape::chw(1, wide_height, wide_width), scene_rng);
  rows.push_back(
      {"graph_wide",
       measure_path([&] { (void)graph_predict(wide, wide_rgb, wide_depth); },
                    path_repeats)});
  rows.push_back(
      {"compiled_wide",
       measure_path([&] { (void)wide.predict(wide_rgb, wide_depth); },
                    path_repeats)});

  // The frame's depth front end (LiDAR points -> sparse depth -> densified
  // inverse depth) at the frame, stream and KITTI geometries.
  std::vector<PathRow> front_end;
  for (const auto& [fh, fw] : {std::pair<int64_t, int64_t>{32, 96},
                               {64, 192},
                               {384, 1248}}) {
    front_end_rows(fh, fw, fh > 100 ? std::max(2, path_repeats / 10)
                                    : path_repeats,
                   front_end);
  }

  // The conv steps the compiled fused schedule runs, with their kernels:
  // serving runs the plan's own NCHWc8 kernels.
  const std::vector<plan::ConvStep> conv_steps =
      plan::conv_steps(net, 1, height, width);

  std::printf("\nSteady-state predict: graph path vs compiled plan (%lldx%lld, "
              "_wide rows %lldx%lld, %d repeats)\n",
              static_cast<long long>(height), static_cast<long long>(width),
              static_cast<long long>(wide_height),
              static_cast<long long>(wide_width), path_repeats);
  bench::print_row({"path", "latency(ms)", "allocs/call", "KiB/call"}, 20);
  for (const PathRow& row : rows) {
    bench::print_row({row.path, fmt(row.m.latency_ms, 3),
                      fmt(row.m.allocs_per_call, 1),
                      fmt(row.m.bytes_per_call / 1024.0, 1)},
                     20);
  }
  std::printf("\nDepth front end (UMM scene scan; empty = every beam lost)\n");
  bench::print_row({"path", "latency(ms)", "allocs/call", "KiB/call"}, 26);
  for (const PathRow& row : front_end) {
    bench::print_row({row.path, fmt(row.m.latency_ms, 4),
                      fmt(row.m.allocs_per_call, 1),
                      fmt(row.m.bytes_per_call / 1024.0, 1)},
                     26);
  }
  bench::JsonWriter json;
  json.begin_object()
      .field("bench", std::string("latency"))
      .field("smoke", smoke)
      .field("repeats", static_cast<int64_t>(path_repeats))
      .field("image_height", static_cast<int64_t>(height))
      .field("image_width", static_cast<int64_t>(width))
      .field("wide_stage_channels", std::string("16,32,64,128,256"))
      .field("wide_image_height", wide_height)
      .field("wide_image_width", wide_width)
      .field("cpu_tier",
             std::string(common::tier_name(common::active_tier())))
      .field("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()))
      .begin_array("paths");
  for (const PathRow& row : rows) {
    json.begin_object()
        .field("path", row.path)
        .field("latency_ms", row.m.latency_ms, 4)
        .field("allocs_per_call", row.m.allocs_per_call, 1)
        .field("bytes_per_call", row.m.bytes_per_call, 1)
        .end_object();
  }
  json.end_array().begin_array("front_end");
  for (const PathRow& row : front_end) {
    json.begin_object()
        .field("path", row.path)
        .field("latency_ms", row.m.latency_ms, 4)
        .field("allocs_per_call", row.m.allocs_per_call, 1)
        .field("bytes_per_call", row.m.bytes_per_call, 1)
        .end_object();
  }
  json.end_array().begin_array("layer_solvers");
  for (const plan::ConvStep& step : conv_steps) {
    json.begin_object()
        .field("layer", step.layer)
        .field("kind", step.kind)
        .field("kernel", step.kernel)
        .end_object();
  }
  // rows[0] is the graph path, rows[1] the compiled fused predict; the
  // last two are the wide net's.
  const double speedup = rows[0].m.latency_ms / rows[1].m.latency_ms;
  const double wide_speedup =
      rows[rows.size() - 2].m.latency_ms / rows.back().m.latency_ms;
  std::printf("compiled plan is %.2fx the graph path (wide net: %.2fx)\n",
              speedup, wide_speedup);
  json.end_array()
      .field("speedup_graph_to_compiled", speedup, 3)
      .field("speedup_graph_to_compiled_wide", wide_speedup, 3)
      .end_object();
  std::printf("%s\n", json.str().c_str());
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "%s\n", json.str().c_str());
    std::fclose(out);
  }
  if (smoke) {
    // Smoke mode is a check, not just a report: fail if any compiled
    // request kind regressed into allocating. (It also skips the
    // training-heavy scheme table below.)
    for (const PathRow& row : rows) {
      if (row.path.rfind("graph", 0) != 0 && row.m.allocs_per_call != 0.0) {
        std::fprintf(stderr,
                     "FAIL: %s path allocates %.1f times per call "
                     "(expected 0)\n",
                     row.path.c_str(), row.m.allocs_per_call);
        return 1;
      }
    }
    // preprocess_depth: one scratch allocation plus the output.
    for (const PathRow& row : front_end) {
      if (row.path.rfind("preprocess", 0) == 0 &&
          row.m.allocs_per_call > 2.0) {
        std::fprintf(stderr,
                     "FAIL: %s allocates %.1f times per call (expected at "
                     "most 2)\n",
                     row.path.c_str(), row.m.allocs_per_call);
        return 1;
      }
    }
    std::printf("smoke check passed: compiled fused, rgb_only, stream_hit "
                "and wide paths allocation-free; preprocess_depth at most 2 "
                "allocations per call\n");
    return 0;
  }

  // -------------------------------------------------------------------
  // Per-scheme latency table (trained models).
  // -------------------------------------------------------------------
  kitti::RoadDataset test_set(config.test_data, kitti::Split::kTest);
  const kitti::Sample& sample = test_set.sample(0);
  const int repeats = 20;

  bench::print_row({"model", "latency(ms)", "MACs(M)"}, 18);
  double baseline_ms = 0.0;
  for (core::FusionScheme scheme : core::all_fusion_schemes()) {
    const float alpha =
        scheme == core::FusionScheme::kBaseline ? 0.0f : config.alpha_fd;
    roadseg::RoadSegNet trained = bench::trained_model(config, scheme, alpha);
    const double ms = measure_latency_ms(trained, sample, repeats);
    if (scheme == core::FusionScheme::kBaseline) {
      baseline_ms = ms;
    }
    bench::print_row(
        {core::to_string(scheme), fmt(ms, 3),
         fmt(trained.complexity(config.test_data.image_height,
                                config.test_data.image_width).macs /
                 1e6,
             3)},
        18);
  }

  // Same architecture, trained with vs without the FD loss: identical
  // inference graph, so latency must match within noise.
  roadseg::RoadSegNet plain =
      bench::trained_model(config, core::FusionScheme::kBaseline, 0.0f);
  roadseg::RoadSegNet with_loss =
      bench::trained_model(config, core::FusionScheme::kBaseline,
                           config.alpha_fd);
  const double plain_ms = measure_latency_ms(plain, sample, repeats);
  const double loss_ms = measure_latency_ms(with_loss, sample, repeats);
  std::printf(
      "\nFD-loss latency check (Baseline): trained without %.3f ms, "
      "with %.3f ms\n-> the loss changes training only; the inference "
      "graph is identical.\n",
      plain_ms, loss_ms);
  std::printf(
      "Expected shape: AllFilter latencies exceed the Baseline's (%.3f "
      "ms);\nsharing schemes match it.\n",
      baseline_ms);
  return 0;
}
