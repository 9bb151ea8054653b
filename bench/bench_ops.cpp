// Operator-level micro-benchmarks (google-benchmark) plus the conv solver
// comparison.
//
// Not a paper figure: supporting measurements for the overhead discussion
// in Sec. IV-B — what a Fusion-filter, the AWN, the edge extractor and the
// Feature Disparity metric cost relative to the network's backbone convs —
// and the machine-readable per-solver GFLOP/s table over the RoadSeg
// encoder conv shapes (see src/tune/):
//
//   bench_ops --kernels-json              JSON to stdout, skip the
//                                         google-benchmark suite
//   bench_ops --kernels-json=FILE         additionally write FILE
//                                         (the committed BENCH_kernels.json
//                                         snapshot is produced this way)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "autograd/ops.hpp"
#include "bench_common.hpp"
#include "core/awn.hpp"
#include "core/feature_disparity.hpp"
#include "core/fusion_filter.hpp"
#include "kitti/dataset.hpp"
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
// Solver comparison over the conv shapes of the RoadSeg encoder at the
// default 32x96 bench resolution, emitted as JSON so the perf trajectory
// across PRs is machine-readable.
// ---------------------------------------------------------------------------

struct ConvShape {
  const char* name;  ///< encoder layer the shape comes from
  int64_t cin, cout, kernel, stride, padding, height, width;
};

// stage_channels {8, 12, 16, 24, 32}: the stem plus conv1/conv2/projection
// of every residual stage (see roadseg/encoder.cpp, nn/blocks.cpp).
constexpr ConvShape kEncoderShapes[] = {
    {"stem_rgb", 3, 8, 3, 1, 1, 32, 96},
    {"stem_depth", 1, 8, 3, 1, 1, 32, 96},
    {"stage1.conv1", 8, 12, 3, 2, 1, 32, 96},
    {"stage1.conv2", 12, 12, 3, 1, 1, 16, 48},
    {"stage1.proj", 8, 12, 1, 2, 0, 32, 96},
    {"stage2.conv1", 12, 16, 3, 2, 1, 16, 48},
    {"stage2.conv2", 16, 16, 3, 1, 1, 8, 24},
    {"stage3.conv1", 16, 24, 3, 2, 1, 8, 24},
    {"stage3.conv2", 24, 24, 3, 1, 1, 4, 12},
    {"stage4.conv1", 24, 32, 3, 2, 1, 4, 12},
    {"stage4.conv2", 32, 32, 3, 1, 1, 2, 6},
};

int64_t conv_macs(const ConvShape& shape) {
  const ag::ConvGeometry geom{shape.kernel, shape.stride, shape.padding};
  return shape.cout * shape.cin * shape.kernel * shape.kernel *
         geom.out_extent(shape.height) * geom.out_extent(shape.width);
}

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
  return problem;
}

/// Runs every registered solver (best over its parameter candidates)
/// through the tune subsystem's measurement loop over the encoder shapes
/// and returns the JSON report.
std::string kernel_comparison_json() {
  const tune::TuneOptions tune_options;  // full measurement floors
  bench::JsonWriter json;
  json.begin_object()
      .field("bench", std::string("bench_ops/kernels"))
      .field("resolution", std::string("32x96"))
      .field("threads", static_cast<int64_t>(1))
      .field("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.begin_array("shapes");
  double speedup_log_sum = 0.0;
  double tuned_log_sum = 0.0;
  double int8_log_sum = 0.0;
  int64_t int8_wins = 0;
  int64_t shape_count = 0;
  for (const ConvShape& shape : kEncoderShapes) {
    const tune::ProblemTuneResult tuned =
        tune::tune_problem(shape_problem(shape), tune_options);
    json.begin_object()
        .field("name", std::string(shape.name))
        .field("cin", shape.cin)
        .field("cout", shape.cout)
        .field("kernel", shape.kernel)
        .field("stride", shape.stride)
        .field("h", shape.height)
        .field("w", shape.width)
        .field("macs", conv_macs(shape));
    // Best GFLOP/s per solver across its parameter candidates, in registry
    // order for a stable column layout.
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
    json.end_object();
    const tune::SolverMeasurement& winner = tuned.best();
    // Every ratio below is taken inside the solver measurement harness;
    // the default-parameter blocked solver is the baseline, which applies
    // to every encoder shape (cout >= 8), so tuned_vs_blocked >= 1.0 by
    // construction.
    const double reference_gflops = tuned.find("reference")->gflops;
    const double blocked_gflops = tuned.find("blocked")->gflops;
    json.field("best_solver",
               winner.params.empty()
                   ? winner.solver
                   : winner.solver + "[" + winner.params + "]")
        .field("best_gflops", winner.gflops, 3);
    json.field("speedup", blocked_gflops / reference_gflops, 3);
    json.field("tuned_vs_blocked", winner.gflops / blocked_gflops, 3);
    // Int8 columns: the same shape keyed as int8 measures the quantized
    // solver family (dynamic activation scales, same MAC count, so the
    // effective-GFLOP/s numbers are directly comparable with the fp32
    // columns). int8_vs_blocked shares tuned_vs_blocked's baseline: the
    // default-parameter blocked solver inside the same harness.
    tune::ConvProblem int8_problem = shape_problem(shape);
    int8_problem.dtype = "int8";
    const tune::ProblemTuneResult int8_tuned =
        tune::tune_problem(int8_problem, tune_options);
    const tune::SolverMeasurement& int8_winner = int8_tuned.best();
    json.begin_object("int8");
    for (const tune::SolverMeasurement& m : int8_tuned.measurements) {
      json.field(m.solver, m.gflops, 3);
    }
    json.field("best_solver", int8_winner.solver)
        .field("best_gflops", int8_winner.gflops, 3)
        .field("int8_vs_blocked", int8_winner.gflops / blocked_gflops, 3)
        .field("int8_vs_best_fp32", int8_winner.gflops / winner.gflops, 3)
        .end_object();
    json.end_object();
    speedup_log_sum += std::log(blocked_gflops / reference_gflops);
    tuned_log_sum += std::log(winner.gflops / blocked_gflops);
    int8_log_sum += std::log(int8_winner.gflops / blocked_gflops);
    if (int8_winner.gflops > winner.gflops) {
      ++int8_wins;
    }
    ++shape_count;
  }
  json.end_array()
      .field("geomean_speedup",
             std::exp(speedup_log_sum / static_cast<double>(shape_count)), 3)
      .field("geomean_tuned_vs_blocked",
             std::exp(tuned_log_sum / static_cast<double>(shape_count)), 3)
      .field("geomean_int8_vs_blocked",
             std::exp(int8_log_sum / static_cast<double>(shape_count)), 3)
      .field("int8_wins_vs_best_fp32", int8_wins)
      .field("shape_count", shape_count)
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
