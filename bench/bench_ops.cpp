// Operator-level micro-benchmarks (google-benchmark) plus the conv kernel
// comparison.
//
// Not a paper figure: supporting measurements for the overhead discussion
// in Sec. IV-B — what a Fusion-filter, the AWN, the edge extractor and the
// Feature Disparity metric cost relative to the network's backbone convs —
// and the machine-readable per-kernel GFLOP/s table over every conv shape
// of the compiled inference plan (the graph's im2col + blocked GEMM conv,
// see src/autograd/, next to the plan's NCHWc8 kernels, see src/plan/):
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
// Kernel comparison over every conv shape the compiled inference plan runs
// at the default 32x96 bench resolution, emitted as JSON so the perf
// trajectory across PRs is machine-readable. Each row carries the graph's
// conv (im2col + blocked GEMM: what the oracle and training run) and the
// plan's own NCHWc8 kernels (what serving runs).
// ---------------------------------------------------------------------------

struct ConvShape {
  const char* name;  ///< network layer the shape comes from
  int64_t cin, cout, kernel, stride, padding, height, width;
  bool transposed = false;  ///< 2x2 / stride-2 decoder upsampling

  int64_t out_h() const {
    return transposed ? height * stride : (height + 2 * padding - kernel) /
                                                  stride + 1;
  }
  int64_t out_w() const {
    return transposed ? width * stride : (width + 2 * padding - kernel) /
                                                 stride + 1;
  }
  /// Multiply-accumulates of one sample: every output of a forward conv
  /// reduces over cin * k^2; every input of a transposed conv feeds
  /// cout * k^2 outputs.
  int64_t macs() const {
    return transposed ? cin * cout * kernel * kernel * height * width
                      : cout * cin * kernel * kernel * out_h() * out_w();
  }
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

/// GFLOP/s of `run_once` on `shape`: the best of three means, each over
/// at least 0.12 s and 8 calls, after two warm-up calls.
template <typename Run>
double measure_gflops(const ConvShape& shape, Run&& run_once) {
  constexpr double kSecondsFloor = 0.12;
  constexpr int64_t kItersFloor = 8;
  using clock = std::chrono::steady_clock;
  run_once();
  run_once();  // warm caches
  double best_seconds = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t iters = 0;
    const clock::time_point start = clock::now();
    double elapsed = 0.0;
    while (elapsed < kSecondsFloor || iters < kItersFloor) {
      run_once();
      ++iters;
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    }
    const double seconds = elapsed / static_cast<double>(iters);
    best_seconds = rep == 0 ? seconds : std::min(best_seconds, seconds);
  }
  return 2.0 * static_cast<double>(shape.macs()) / best_seconds / 1e9;
}

/// GFLOP/s of the graph's conv op on `shape` (im2col + blocked GEMM, or
/// for a transposed conv the blocked A^T GEMM + col2im), with no grad
/// recorded. The head carries its bias; BN and ReLU are separate graph
/// ops and are not timed.
double graph_gflops(const ConvShape& shape) {
  Rng rng(23);
  const bool head = shape.cout == 1;
  const ag::Variable x = ag::Variable::constant(Tensor::normal(
      Shape::nchw(1, shape.cin, shape.height, shape.width), rng));
  const ag::ConvGeometry geom{shape.kernel, shape.stride, shape.padding};
  const ag::Variable w = ag::Variable::constant(Tensor::normal(
      shape.transposed
          ? Shape::nchw(shape.cin, shape.cout, shape.kernel, shape.kernel)
          : Shape::nchw(shape.cout, shape.cin, shape.kernel, shape.kernel),
      rng));
  const ag::Variable b =
      head ? ag::Variable::constant(Tensor::normal(Shape::vec(1), rng))
           : ag::Variable();
  const ag::InferenceModeGuard no_grad;
  return measure_gflops(shape, [&] {
    benchmark::DoNotOptimize(shape.transposed
                                 ? ag::conv_transpose2d(x, w, b, geom)
                                 : ag::conv2d(x, w, b, geom));
  });
}

/// GFLOP/s of the plan's NCHWc8 kernel on `shape` at the active CPU tier.
/// Direct convs carry the plan's eval-BN + ReLU epilogue (the head its
/// bias); transposed convs run without the skip add.
double nchwc_gflops(const ConvShape& shape) {
  Rng rng(23);
  const int64_t out_h = shape.out_h();
  const int64_t out_w = shape.out_w();
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
  const double gflops = measure_gflops(shape, [&] {
    if (shape.transposed) {
      plan::tconv_nchwc(src.data(), 1, shape.height, shape.width, pc,
                        dst.data(), nullptr);
    } else {
      plan::conv_nchwc(src.data(), 1, shape.height, shape.width, pc,
                       dst.data(), out_h, out_w, nullptr, nullptr, 1.0f);
    }
  });
  benchmark::DoNotOptimize(dst.data());
  return gflops;
}

/// Times the graph's conv and the plan's NCHWc8 kernel on the scalar and
/// (host permitting) the AVX2 tier over the plan shapes and returns the
/// JSON report.
std::string kernel_comparison_json() {
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
  for (const ConvShape& shape : kPlanShapes) {
    json.begin_object()
        .field("name", std::string(shape.name))
        .field("cin", shape.cin)
        .field("cout", shape.cout)
        .field("kernel", shape.kernel)
        .field("stride", shape.stride)
        .field("transposed", shape.transposed)
        .field("h", shape.height)
        .field("w", shape.width)
        .field("macs", shape.macs());
    json.begin_object("kernels").field("graph", graph_gflops(shape), 3);
    for (const common::CpuTier tier :
         {common::CpuTier::kScalar, common::CpuTier::kAvx2}) {
      common::set_active_tier(tier);
      if (common::active_tier() == tier) {
        json.field(tier == common::CpuTier::kAvx2 ? "nchwc_direct_avx2"
                                                  : "nchwc_direct",
                   nchwc_gflops(shape), 3);
      }
    }
    common::set_active_tier(host_tier);
    json.end_object().end_object();
  }
  json.end_array()
      .field("shape_count", static_cast<int64_t>(std::size(kPlanShapes)))
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
