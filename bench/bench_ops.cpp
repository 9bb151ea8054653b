// Operator-level micro-benchmarks (google-benchmark) plus the conv solver
// comparison.
//
// Not a paper figure: supporting measurements for the overhead discussion
// in Sec. IV-B — what a Fusion-filter, the AWN, the edge extractor and the
// Feature Disparity metric cost relative to the network's backbone convs —
// and the machine-readable per-kernel GFLOP/s table over every conv shape
// of the compiled inference plan (registry solvers, see src/tune/, next
// to the plan's NCHWc8 kernels, see src/plan/):
//
//   bench_ops --kernels-json              JSON to stdout, skip the
//                                         google-benchmark suite
//   bench_ops --kernels-json=FILE         additionally write FILE
//                                         (the committed BENCH_kernels.json
//                                         snapshot is produced this way)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "autograd/ops.hpp"
#include "bench_common.hpp"
#include "common/cpu.hpp"
#include "core/awn.hpp"
#include "core/feature_disparity.hpp"
#include "core/fusion_filter.hpp"
#include "kitti/dataset.hpp"
#include "nn/layers.hpp"
#include "plan/nchwc.hpp"
#include "tune/problem.hpp"
#include "tune/tuner.hpp"
#include "vision/bev.hpp"
#include "vision/edges.hpp"

namespace {

using namespace roadfusion;
namespace ag = roadfusion::autograd;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

void BM_Conv3x3Forward(benchmark::State& state) {
  Rng rng(1);
  const int64_t c = state.range(0);
  const ag::Variable x =
      ag::Variable::constant(Tensor::normal(Shape::nchw(1, c, 32, 96), rng));
  const ag::Variable w =
      ag::Variable::constant(Tensor::normal(Shape::nchw(c, c, 3, 3), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ag::conv2d(x, w, ag::Variable(), ag::ConvGeometry{3, 1, 1}));
  }
}
BENCHMARK(BM_Conv3x3Forward)->Arg(8)->Arg(16)->Arg(32);

void BM_Conv3x3Backward(benchmark::State& state) {
  Rng rng(2);
  const int64_t c = state.range(0);
  for (auto _ : state) {
    ag::Variable x =
        ag::Variable::leaf(Tensor::normal(Shape::nchw(1, c, 32, 96), rng),
                           true);
    ag::Variable w =
        ag::Variable::leaf(Tensor::normal(Shape::nchw(c, c, 3, 3), rng),
                           true);
    ag::mean_all(ag::conv2d(x, w, ag::Variable(), ag::ConvGeometry{3, 1, 1}))
        .backward();
    benchmark::DoNotOptimize(w.grad());
  }
}
BENCHMARK(BM_Conv3x3Backward)->Arg(8)->Arg(16);

void BM_FusionFilter1x1(benchmark::State& state) {
  Rng rng(3);
  const int64_t c = state.range(0);
  const core::FusionFilter filter("f", c, rng);
  const ag::Variable source =
      ag::Variable::constant(Tensor::normal(Shape::nchw(1, c, 32, 96), rng));
  const ag::Variable target =
      ag::Variable::constant(Tensor::normal(Shape::nchw(1, c, 32, 96), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.fuse(target, source));
  }
}
BENCHMARK(BM_FusionFilter1x1)->Arg(8)->Arg(16)->Arg(32);

void BM_ElementwiseSumFusion(benchmark::State& state) {
  Rng rng(4);
  const int64_t c = state.range(0);
  const ag::Variable a =
      ag::Variable::constant(Tensor::normal(Shape::nchw(1, c, 32, 96), rng));
  const ag::Variable b =
      ag::Variable::constant(Tensor::normal(Shape::nchw(1, c, 32, 96), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::add(a, b));
  }
}
BENCHMARK(BM_ElementwiseSumFusion)->Arg(8)->Arg(16)->Arg(32);

void BM_AwnWeightedFusion(benchmark::State& state) {
  Rng rng(5);
  const int64_t c = state.range(0);
  const core::AuxiliaryWeightNetwork awn("awn", c, rng);
  const ag::Variable a =
      ag::Variable::constant(Tensor::normal(Shape::nchw(1, c, 2, 6), rng));
  const ag::Variable b =
      ag::Variable::constant(Tensor::normal(Shape::nchw(1, c, 2, 6), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(awn.fuse(a, b));
  }
}
BENCHMARK(BM_AwnWeightedFusion)->Arg(32);

void BM_SobelEdgeOp(benchmark::State& state) {
  Rng rng(6);
  const ag::Variable x = ag::Variable::constant(
      Tensor::normal(Shape::nchw(1, state.range(0), 32, 96), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::sobel_edge(x));
  }
}
BENCHMARK(BM_SobelEdgeOp)->Arg(8)->Arg(32);

void BM_FeatureDisparityMetric(benchmark::State& state) {
  Rng rng(7);
  const Tensor a = Tensor::normal(Shape::chw(state.range(0), 32, 96), rng);
  const Tensor b = Tensor::normal(Shape::chw(state.range(0), 32, 96), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::feature_disparity(a, b));
  }
}
BENCHMARK(BM_FeatureDisparityMetric)->Arg(8)->Arg(32);

void BM_BevWarp(benchmark::State& state) {
  Rng rng(8);
  const vision::Camera camera(96, 32, 90.0, 1.6, 0.12);
  const Tensor plane = Tensor::uniform(Shape::mat(32, 96), rng);
  const vision::BevSpec spec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::bev_warp(plane, camera, spec));
  }
}
BENCHMARK(BM_BevWarp);

void BM_DatasetSampleGeneration(benchmark::State& state) {
  kitti::DatasetConfig config;
  config.max_per_category = 1000;  // avoid cache reuse across iterations
  const kitti::RoadDataset dataset(config, kitti::Split::kTrain);
  int64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataset.sample(index));
    index = (index + 1) % dataset.size();
  }
}
BENCHMARK(BM_DatasetSampleGeneration);

// ---------------------------------------------------------------------------
// Solver comparison over every conv shape the compiled inference plan runs
// at the default 32x96 bench resolution, emitted as JSON so the perf
// trajectory across PRs is machine-readable. Each row carries the
// registry solvers (what the graph and the all-NCHW schedule bind) and the
// plan's own NCHWc8 kernels (what default serving runs).
// ---------------------------------------------------------------------------

struct ConvShape {
  const char* name;  ///< network layer the shape comes from
  int64_t cin, cout, kernel, stride, padding, height, width;
  bool transposed = false;  ///< 2x2 / stride-2 decoder upsampling
};

// stage_channels {8, 12, 16, 24, 32}: the stems, conv1/conv2/projection
// of every residual stage (see roadseg/encoder.cpp, nn/blocks.cpp), then
// the decoder's up/refine pair per transition and the 1x1 head (see
// roadseg/decoder.cpp). Transposed rows give the input geometry.
constexpr ConvShape kPlanShapes[] = {
    {"stem_rgb", 3, 8, 3, 1, 1, 32, 96},
    {"stem_depth", 1, 8, 3, 1, 1, 32, 96},
    {"stage1.conv1", 8, 12, 3, 2, 1, 32, 96},
    {"stage1.conv2", 12, 12, 3, 1, 1, 16, 48},
    {"stage1.proj", 8, 12, 1, 2, 0, 32, 96},
    {"stage2.conv1", 12, 16, 3, 2, 1, 16, 48},
    {"stage2.conv2", 16, 16, 3, 1, 1, 8, 24},
    {"stage2.proj", 12, 16, 1, 2, 0, 16, 48},
    {"stage3.conv1", 16, 24, 3, 2, 1, 8, 24},
    {"stage3.conv2", 24, 24, 3, 1, 1, 4, 12},
    {"stage3.proj", 16, 24, 1, 2, 0, 8, 24},
    {"stage4.conv1", 24, 32, 3, 2, 1, 4, 12},
    {"stage4.conv2", 32, 32, 3, 1, 1, 2, 6},
    {"stage4.proj", 24, 32, 1, 2, 0, 4, 12},
    {"decoder.up4", 32, 24, 2, 2, 0, 2, 6, true},
    {"decoder.refine4", 24, 24, 3, 1, 1, 4, 12},
    {"decoder.up3", 24, 16, 2, 2, 0, 4, 12, true},
    {"decoder.refine3", 16, 16, 3, 1, 1, 8, 24},
    {"decoder.up2", 16, 12, 2, 2, 0, 8, 24, true},
    {"decoder.refine2", 12, 12, 3, 1, 1, 16, 48},
    {"decoder.up1", 12, 8, 2, 2, 0, 16, 48, true},
    {"decoder.refine1", 8, 8, 3, 1, 1, 32, 96},
    {"decoder.head", 8, 1, 1, 1, 0, 32, 96},
};

tune::ConvProblem shape_problem(const ConvShape& shape) {
  tune::ConvProblem problem;
  problem.c = shape.cin;
  problem.h = shape.height;
  problem.w = shape.width;
  problem.k = shape.cout;
  problem.r = shape.kernel;
  problem.s = shape.kernel;
  problem.stride = shape.stride;
  problem.pad = shape.padding;
  problem.transposed = shape.transposed;
  return problem;
}

/// GFLOP/s of the plan's NCHWc8 kernel on `shape` at the active CPU tier:
/// the best of three means, each over the tuner's measurement floors.
/// Direct convs carry the plan's eval-BN + ReLU epilogue (the head its
/// bias); transposed convs run without the skip add.
double nchwc_gflops(const ConvShape& shape, const tune::TuneOptions& options) {
  Rng rng(23);
  const tune::ConvProblem problem = shape_problem(shape);
  const int64_t out_h = problem.out_h();
  const int64_t out_w = problem.out_w();
  plan::PackedConv pc;
  if (shape.transposed) {
    const nn::ConvTranspose2d layer(shape.name, shape.cin, shape.cout, 2, 2, 0,
                                    /*bias=*/false, rng);
    pc = plan::pack_tconv(layer, shape.name);
  } else {
    const bool head = shape.cout == 1;
    const nn::Conv2d conv(shape.name, shape.cin, shape.cout, shape.kernel,
                          shape.stride, shape.padding, /*bias=*/head, rng);
    nn::BatchNorm2d bn(std::string(shape.name) + ".bn", shape.cout);
    bn.set_training(false);
    pc = plan::pack_conv(conv, head ? nullptr : &bn, !head, shape.name);
  }
  std::vector<float> src(static_cast<size_t>(plan::nchwc_floats(
                             1, shape.cin, shape.height, shape.width)),
                         0.0f);
  const Tensor x = Tensor::normal(
      Shape::nchw(1, shape.cin, shape.height, shape.width), rng);
  plan::convert_to_nchwc(x.raw(), 1, shape.cin, shape.height, shape.width,
                         src.data());
  std::vector<float> dst(
      static_cast<size_t>(plan::nchwc_floats(1, shape.cout, out_h, out_w)),
      0.0f);
  const auto run_once = [&] {
    if (shape.transposed) {
      plan::tconv_nchwc(src.data(), 1, shape.height, shape.width, pc,
                        dst.data(), nullptr);
    } else {
      plan::conv_nchwc(src.data(), 1, shape.height, shape.width, pc,
                       dst.data(), out_h, out_w, nullptr, nullptr, 1.0f);
    }
  };
  using clock = std::chrono::steady_clock;
  run_once();
  run_once();  // warm caches
  double best_seconds = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t iters = 0;
    const clock::time_point start = clock::now();
    double elapsed = 0.0;
    while (elapsed < options.seconds_floor() ||
           iters < options.iters_floor()) {
      run_once();
      ++iters;
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    }
    const double seconds = elapsed / static_cast<double>(iters);
    best_seconds = rep == 0 ? seconds : std::min(best_seconds, seconds);
  }
  benchmark::DoNotOptimize(dst.data());
  return 2.0 * static_cast<double>(problem.macs()) / best_seconds / 1e9;
}

/// Runs every registered solver (best over its parameter candidates)
/// through the tune subsystem's measurement loop, plus the plan's NCHWc8
/// kernel on the scalar and (host permitting) the AVX2 tier, over the
/// plan shapes and returns the JSON report.
std::string kernel_comparison_json() {
  const tune::TuneOptions tune_options;  // full measurement floors
  const common::CpuTier host_tier = common::active_tier();
  bench::JsonWriter json;
  json.begin_object()
      .field("bench", std::string("bench_ops/kernels"))
      .field("resolution", std::string("32x96"))
      .field("threads", static_cast<int64_t>(1))
      .field("cpu_tier", std::string(common::tier_name(host_tier)))
      .field("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.begin_array("shapes");
  double speedup_log_sum = 0.0;
  double tuned_log_sum = 0.0;
  int64_t ratio_count = 0;  // rows with the blocked-solver ratios
  for (const ConvShape& shape : kPlanShapes) {
    const tune::ConvProblem problem = shape_problem(shape);
    const tune::ProblemTuneResult tuned =
        tune::tune_problem(problem, tune_options);
    json.begin_object()
        .field("name", std::string(shape.name))
        .field("cin", shape.cin)
        .field("cout", shape.cout)
        .field("kernel", shape.kernel)
        .field("stride", shape.stride)
        .field("transposed", shape.transposed)
        .field("h", shape.height)
        .field("w", shape.width)
        .field("macs", problem.macs());
    // Best GFLOP/s per solver across its parameter candidates, in registry
    // order for a stable column layout, then the plan's kernels.
    json.begin_object("solvers");
    for (const tune::Solver* solver : tune::solvers()) {
      double best = 0.0;
      for (const tune::SolverMeasurement& m : tuned.measurements) {
        if (m.solver == solver->name()) {
          best = std::max(best, m.gflops);
        }
      }
      if (best > 0.0) {
        json.field(solver->name(), best, 3);
      }
    }
    for (const common::CpuTier tier :
         {common::CpuTier::kScalar, common::CpuTier::kAvx2}) {
      common::set_active_tier(tier);
      if (common::active_tier() == tier) {
        json.field(tier == common::CpuTier::kAvx2 ? "nchwc_direct_avx2"
                                                  : "nchwc_direct",
                   nchwc_gflops(shape, tune_options), 3);
      }
    }
    common::set_active_tier(host_tier);
    json.end_object();
    const tune::SolverMeasurement& winner = tuned.best();
    json.field("best_solver",
               winner.params.empty()
                   ? winner.solver
                   : winner.solver + "[" + winner.params + "]")
        .field("best_gflops", winner.gflops, 3);
    // Every ratio below is taken inside the solver measurement harness
    // against the default-parameter blocked solver (its transposed twin
    // on the upsampling rows), so tuned_vs_blocked >= 1.0 by
    // construction. The one-channel head is below the blocked solver's
    // cout floor and carries no ratios.
    const std::string prefix = shape.transposed ? "tconv_" : "";
    const tune::SolverMeasurement* reference = tuned.find(prefix + "reference");
    const tune::SolverMeasurement* blocked = tuned.find(prefix + "blocked");
    if (reference != nullptr && blocked != nullptr) {
      json.field("speedup", blocked->gflops / reference->gflops, 3);
      json.field("tuned_vs_blocked", winner.gflops / blocked->gflops, 3);
      speedup_log_sum += std::log(blocked->gflops / reference->gflops);
      tuned_log_sum += std::log(winner.gflops / blocked->gflops);
      ++ratio_count;
    }
    json.end_object();
  }
  json.end_array()
      .field("geomean_speedup",
             std::exp(speedup_log_sum / static_cast<double>(ratio_count)), 3)
      .field("geomean_tuned_vs_blocked",
             std::exp(tuned_log_sum / static_cast<double>(ratio_count)), 3)
      .field("shape_count", static_cast<int64_t>(std::size(kPlanShapes)))
      .field("geomean_shape_count", ratio_count)
      .end_object();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Pull out --kernels-json[=FILE] before google-benchmark sees argv.
  bool kernels_only = false;
  std::string json_path;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--kernels-json";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      kernels_only = true;
      const char* rest = argv[i] + std::strlen(kFlag);
      if (rest[0] == '=') {
        json_path = rest + 1;
      }
      continue;
    }
    argv[out_argc++] = argv[i];
  }
  argc = out_argc;
  if (!kernels_only) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  const std::string json = kernel_comparison_json();
  std::printf("%s\n", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
  }
  return 0;
}
