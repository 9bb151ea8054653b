// Differential kernel-parity suite: the autograd conv (im2col + blocked
// GEMM, forward and backward) must agree with a scalar reference conv
// built from im2col, the tensor::matmul* triple loops and col2im on every
// conv geometry the repository can express — forward, input gradient,
// weight gradient and bias gradient — plus the three raw GEMM forms at
// sizes that straddle the register-tile and cache-block boundaries. A
// seeded fuzz loop sweeps ~200 random geometries on top of the hand-picked
// grid.
//
// Tolerance: the reference matmul_bt accumulates in double while the
// blocked kernel accumulates in float, so exact equality is out; parity is
// |diff| <= 1e-5 * max(1, max|reference|) elementwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "autograd/gemm.hpp"
#include "autograd/kernels.hpp"
#include "autograd/ops.hpp"
#include "common/check.hpp"
#include "common/cpu.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "plan/nchwc.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace roadfusion::autograd {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

constexpr float kTol = 1e-5f;

/// Restores the blocked-GEMM blocking parameters on scope exit, so a
/// failing test cannot leak state into later tests.
class BlockingGuard {
 public:
  BlockingGuard() : config_(kernels::blocked_gemm_config()) {}
  ~BlockingGuard() { kernels::blocked_gemm_config() = config_; }

 private:
  kernels::BlockedGemmConfig config_;
};

/// Restores the active CPU tier on scope exit.
class TierGuard {
 public:
  TierGuard() : tier_(common::active_tier()) {}
  ~TierGuard() { common::set_active_tier(tier_); }

 private:
  common::CpuTier tier_;
};

void expect_allclose(const Tensor& reference, const Tensor& actual,
                     const std::string& what) {
  ASSERT_EQ(reference.shape(), actual.shape()) << what;
  float max_abs = 1.0f;
  for (int64_t i = 0; i < reference.numel(); ++i) {
    max_abs = std::max(max_abs, std::abs(reference.at(i)));
  }
  const float tol = kTol * max_abs;
  for (int64_t i = 0; i < reference.numel(); ++i) {
    ASSERT_NEAR(reference.at(i), actual.at(i), tol)
        << what << " diverges at flat index " << i;
  }
}

struct ConvCase {
  int64_t n, cin, cout, h, w, kernel, stride, padding;

  std::string str() const {
    return "n" + std::to_string(n) + "_c" + std::to_string(cin) + "to" +
           std::to_string(cout) + "_" + std::to_string(h) + "x" +
           std::to_string(w) + "_k" + std::to_string(kernel) + "s" +
           std::to_string(stride) + "p" + std::to_string(padding);
  }
};

struct ConvResult {
  Tensor y, dx, dw, db;
};

/// Runs the autograd conv2d forward + backward. The loss is a fixed random
/// weighting of the output (sum(y * r)) so every output position feeds a
/// distinct gradient — a plain sum would hide kernels that permute output
/// columns.
ConvResult run_conv(const ConvCase& c, const Tensor& x_t, const Tensor& w_t,
                    const Tensor& b_t, const Tensor& weighting) {
  Variable x = Variable::leaf(x_t, /*requires_grad=*/true);
  Variable w = Variable::leaf(w_t, /*requires_grad=*/true);
  Variable b = Variable::leaf(b_t, /*requires_grad=*/true);
  const ConvGeometry geom{c.kernel, c.stride, c.padding};
  const Variable y = conv2d(x, w, b, geom);
  sum_all(mul(y, Variable::constant(weighting))).backward();
  return {y.value(), x.grad(), w.grad(), b.grad()};
}

/// The same forward and gradients from the scalar oracle: im2col, the
/// tensor::matmul* triple loops and col2im. Under the loss sum(y * r) the
/// output gradient is the weighting r itself.
ConvResult reference_conv(const ConvCase& c, const Tensor& x_t,
                          const Tensor& w_t, const Tensor& b_t,
                          const Tensor& weighting) {
  const ConvGeometry geom{c.kernel, c.stride, c.padding};
  const int64_t out_plane = geom.out_extent(c.h) * geom.out_extent(c.w);
  const int64_t ckk = c.cin * c.kernel * c.kernel;
  const int64_t in_size = c.cin * c.h * c.w;
  const Tensor wmat = w_t.reshaped(Shape::mat(c.cout, ckk));
  ConvResult r{Tensor(weighting.shape()), Tensor(x_t.shape()),
               Tensor(Shape::mat(c.cout, ckk)), Tensor(b_t.shape())};
  for (int64_t s = 0; s < c.n; ++s) {
    const Tensor columns =
        kernels::im2col(x_t.raw() + s * in_size, c.cin, c.h, c.w, geom);
    Tensor gout(Shape::mat(c.cout, out_plane));
    std::memcpy(gout.raw(), weighting.raw() + s * c.cout * out_plane,
                static_cast<size_t>(c.cout * out_plane) * sizeof(float));
    const Tensor y = tensor::matmul(wmat, columns);
    for (int64_t ch = 0; ch < c.cout; ++ch) {
      for (int64_t i = 0; i < out_plane; ++i) {
        r.y.at((s * c.cout + ch) * out_plane + i) =
            y.at(ch * out_plane + i) + b_t.at(ch);
        r.db.at(ch) += gout.at(ch * out_plane + i);
      }
    }
    const Tensor dw = tensor::matmul_bt(gout, columns);
    for (int64_t i = 0; i < dw.numel(); ++i) {
      r.dw.at(i) += dw.at(i);
    }
    kernels::col2im_accumulate(tensor::matmul_at(wmat, gout), c.cin, c.h,
                               c.w, geom, r.dx.raw() + s * in_size);
  }
  r.dw = r.dw.reshaped(w_t.shape());
  return r;
}

void expect_conv_parity(const ConvCase& c) {
  SCOPED_TRACE(c.str());
  Rng rng(91);
  const Tensor x_t = Tensor::normal(Shape::nchw(c.n, c.cin, c.h, c.w), rng);
  const Tensor w_t =
      Tensor::normal(Shape::nchw(c.cout, c.cin, c.kernel, c.kernel), rng);
  const Tensor b_t = Tensor::normal(Shape::vec(c.cout), rng);
  const ConvGeometry geom{c.kernel, c.stride, c.padding};
  const Tensor weighting = Tensor::normal(
      Shape::nchw(c.n, c.cout, geom.out_extent(c.h), geom.out_extent(c.w)),
      rng);

  const ConvResult reference = reference_conv(c, x_t, w_t, b_t, weighting);
  const ConvResult actual = run_conv(c, x_t, w_t, b_t, weighting);
  expect_allclose(reference.y, actual.y, "forward");
  expect_allclose(reference.dx, actual.dx, "input-grad");
  expect_allclose(reference.dw, actual.dw, "weight-grad");
  expect_allclose(reference.db, actual.db, "bias-grad");
}

// ---------------------------------------------------------------------------
// Hand-picked geometry grid
// ---------------------------------------------------------------------------

TEST(KernelParity, ConvGeometrySweep) {
  const std::vector<ConvCase> cases = {
      // kernel 1 / 3 / 7, stride 1 / 2, paddings 0..3
      {1, 3, 8, 12, 16, 1, 1, 0},
      {1, 3, 8, 12, 16, 3, 1, 1},
      {1, 3, 8, 13, 17, 3, 2, 1},
      {1, 4, 6, 14, 14, 7, 1, 3},
      {1, 4, 6, 14, 14, 7, 2, 3},
      {2, 2, 4, 9, 9, 3, 1, 0},
      {2, 2, 4, 9, 9, 3, 1, 2},
      {2, 2, 4, 9, 9, 3, 2, 3},
      // channel counts off the kMr=4 / kNr=8 register-tile multiples
      {1, 1, 1, 8, 8, 3, 1, 1},
      {1, 5, 13, 10, 10, 3, 1, 1},
      {1, 7, 3, 10, 10, 1, 1, 0},
      {3, 3, 5, 7, 11, 3, 2, 1},
      // RoadSeg encoder shapes (stem + one stage)
      {1, 3, 8, 32, 96, 3, 1, 1},
      {2, 8, 12, 32, 96, 3, 2, 1},
      {1, 8, 12, 32, 96, 1, 2, 0},
      // degenerate spatial extents
      {1, 3, 4, 1, 1, 1, 1, 0},
      {1, 2, 3, 1, 1, 3, 1, 1},
      {2, 5, 9, 1, 7, 3, 2, 1},
  };
  for (const ConvCase& c : cases) {
    expect_conv_parity(c);
  }
}

// ---------------------------------------------------------------------------
// Seeded fuzz sweep
// ---------------------------------------------------------------------------

TEST(KernelParity, ConvFuzz200Cases) {
  std::mt19937 gen(20220705);  // fixed seed: failures must reproduce
  std::uniform_int_distribution<int> kernel_pick(0, 4);
  std::uniform_int_distribution<int64_t> stride_dist(1, 2);
  std::uniform_int_distribution<int64_t> padding_dist(0, 3);
  std::uniform_int_distribution<int64_t> batch_dist(1, 3);
  std::uniform_int_distribution<int64_t> cin_dist(1, 9);
  std::uniform_int_distribution<int64_t> cout_dist(1, 17);
  std::uniform_int_distribution<int64_t> extent_dist(1, 14);
  const int64_t kernels[] = {1, 2, 3, 5, 7};
  int accepted = 0;
  while (accepted < 200) {
    ConvCase c;
    c.kernel = kernels[kernel_pick(gen)];
    c.stride = stride_dist(gen);
    c.padding = padding_dist(gen);
    c.n = batch_dist(gen);
    c.cin = cin_dist(gen);
    c.cout = cout_dist(gen);
    c.h = extent_dist(gen);
    c.w = extent_dist(gen);
    // Geometry must yield at least one output position.
    if (c.h + 2 * c.padding < c.kernel || c.w + 2 * c.padding < c.kernel) {
      continue;
    }
    ++accepted;
    expect_conv_parity(c);
  }
}

// ---------------------------------------------------------------------------
// Raw GEMM forms at block-boundary sizes
// ---------------------------------------------------------------------------

struct GemmCase {
  int64_t m, k, n;
};

void expect_gemm_parity(const GemmCase& g) {
  SCOPED_TRACE("m" + std::to_string(g.m) + "_k" + std::to_string(g.k) + "_n" +
               std::to_string(g.n));
  Rng rng(7);
  const Tensor a = Tensor::normal(Shape::mat(g.m, g.k), rng);
  const Tensor b = Tensor::normal(Shape::mat(g.k, g.n), rng);
  expect_allclose(tensor::matmul(a, b), kernels::blocked_matmul(a, b),
                  "matmul");
  const Tensor at = Tensor::normal(Shape::mat(g.k, g.m), rng);
  expect_allclose(tensor::matmul_at(at, b), kernels::blocked_matmul_at(at, b),
                  "matmul_at");
  const Tensor bt = Tensor::normal(Shape::mat(g.n, g.k), rng);
  expect_allclose(tensor::matmul_bt(a, bt), kernels::blocked_matmul_bt(a, bt),
                  "matmul_bt");
}

TEST(KernelParity, GemmBlockBoundaries) {
  const std::vector<GemmCase> cases = {
      {1, 1, 1},    {1, 1, 9},    {3, 5, 7},    {4, 8, 8},
      {5, 9, 17},   {8, 16, 24},  {12, 108, 768},  // stage1.conv2 shape
      {33, 130, 100},  // crosses kMr/kNr remainders in both dimensions
  };
  for (const GemmCase& g : cases) {
    expect_gemm_parity(g);
  }
}

TEST(KernelParity, GemmMultipleCacheBlocks) {
  // Shrink the cache blocks so a modest problem spans several Mc/Kc/Nc
  // iterations, exercising the packed multi-block accumulation path.
  BlockingGuard guard;
  kernels::BlockedGemmConfig& config = kernels::blocked_gemm_config();
  config.mc = 8;
  config.kc = 16;
  config.nc = 24;
  expect_gemm_parity({21, 70, 55});
  expect_gemm_parity({8, 16, 24});
  expect_gemm_parity({9, 17, 25});
}

TEST(KernelParity, GemmBitsDoNotDependOnBlocking) {
  // Each output is one chain over all of K, so neither the cache blocks
  // (k spans up to 50 Kc blocks of 16 here) nor the SSE2 / scalar
  // micro-kernel choice may change a bit of any of the three forms.
  const GemmCase cases[] = {{21, 70, 55}, {9, 17, 25}, {12, 432, 96},
                            {33, 800, 40}};
  for (const GemmCase& g : cases) {
    const std::string shape = "m" + std::to_string(g.m) + "_k" +
                              std::to_string(g.k) + "_n" + std::to_string(g.n);
    Rng rng(8);
    const Tensor a = Tensor::normal(Shape::mat(g.m, g.k), rng);
    const Tensor b = Tensor::normal(Shape::mat(g.k, g.n), rng);
    const Tensor at = Tensor::normal(Shape::mat(g.k, g.m), rng);
    const Tensor bt = Tensor::normal(Shape::mat(g.n, g.k), rng);
    const auto run = [&] {
      return std::vector<Tensor>{kernels::blocked_matmul(a, b),
                                 kernels::blocked_matmul_at(at, b),
                                 kernels::blocked_matmul_bt(a, bt)};
    };
    const std::vector<Tensor> expected = run();
    BlockingGuard blocking;
    TierGuard tier;
    for (const common::CpuTier t :
         {common::CpuTier::kScalar, common::detected_tier()}) {
      common::set_active_tier(t);
      for (const bool shrunk : {false, true}) {
        kernels::BlockedGemmConfig& config = kernels::blocked_gemm_config();
        config = kernels::BlockedGemmConfig{};
        if (shrunk) {
          config.mc = 8;
          config.kc = 16;
          config.nc = 24;
        }
        const std::vector<Tensor> actual = run();
        for (size_t form = 0; form < actual.size(); ++form) {
          EXPECT_EQ(std::memcmp(actual[form].raw(), expected[form].raw(),
                                static_cast<size_t>(actual[form].numel()) *
                                    sizeof(float)),
                    0)
              << shape << " form " << form << " tier "
              << common::tier_name(t) << (shrunk ? " shrunk" : " default")
              << " blocks";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// im2col caching: forward columns must be reused by backward
// ---------------------------------------------------------------------------

TEST(Im2colCache, OneLoweringPerConvPerSamplePerStep) {
  Rng rng(5);
  const int64_t batch = 3;
  Variable x = Variable::leaf(
      Tensor::normal(Shape::nchw(batch, 3, 10, 12), rng), true);
  Variable w1 = Variable::leaf(Tensor::normal(Shape::nchw(6, 3, 3, 3), rng),
                               true);
  Variable w2 = Variable::leaf(Tensor::normal(Shape::nchw(4, 6, 3, 3), rng),
                               true);
  const ConvGeometry geom{3, 1, 1};

  kernels::reset_im2col_call_count();
  const Variable y = conv2d(conv2d(x, w1, Variable(), geom), w2, Variable(),
                            geom);
  const uint64_t after_forward = kernels::im2col_call_count();
  EXPECT_EQ(after_forward, static_cast<uint64_t>(2 * batch))
      << "forward must lower each conv input exactly once per sample";

  sum_all(y).backward();
  EXPECT_EQ(kernels::im2col_call_count(), after_forward)
      << "backward must reuse the forward's cached columns, not re-lower";
  EXPECT_EQ(w1.grad().shape(), Shape::nchw(6, 3, 3, 3));
  EXPECT_EQ(x.grad().shape(), Shape::nchw(batch, 3, 10, 12));
}

// ---------------------------------------------------------------------------
// NCHWc8 plan kernels: the blocked transposed conv (the decoder's 2x2/s2
// upsampling with the skip add fused as `pre`) and the stage-0 stems (cin
// 1 and 3, with and without the fused fusion sum) must reproduce the
// autograd graph's ops (conv or transposed conv, then eval BN, then ReLU)
// bit-for-bit on the scalar and the AVX2 tier,
// at batch 2; the direct-conv sweep runs every output width up to and past
// the AVX2 kernel's sliding-window tiles, so every tail width is covered.
// ---------------------------------------------------------------------------

std::vector<float> to_blocked(const Tensor& t) {
  const Shape& s = t.shape();
  std::vector<float> out(static_cast<size_t>(plan::nchwc_floats(
                             s.batch(), s.channels(), s.height(), s.width())),
                         0.0f);
  plan::convert_to_nchwc(t.raw(), s.batch(), s.channels(), s.height(),
                         s.width(), out.data());
  return out;
}

/// Gives every non-weight state entry of `module` (bias, BN affine and
/// running statistics) non-trivial values; running variances stay > 0.
void randomize_state(nn::Module& module, Rng& rng) {
  std::vector<nn::StateEntry> state;
  module.collect_state("", state);
  for (const nn::StateEntry& entry : state) {
    if (entry.name.find("weight") != std::string::npos) {
      continue;
    }
    const bool var = entry.name.find("running_var") != std::string::npos;
    const Tensor values = var ? Tensor::uniform(entry.tensor->shape(), rng)
                              : Tensor::normal(entry.tensor->shape(), rng);
    for (int64_t i = 0; i < values.numel(); ++i) {
      entry.tensor->at(i) = var ? 0.5f + values.at(i) : values.at(i);
    }
  }
}

/// Runs `kernel` into a NaN-filled destination with a zeroed border on
/// every tier: no lane may stay unwritten, the NCHW view must memcmp-equal
/// `oracle`, and every tier's whole buffer must equal the scalar one's.
template <typename Kernel>
void expect_nchwc_kernel(const Tensor& oracle, Kernel&& kernel,
                         const std::string& what) {
  const Shape& s = oracle.shape();
  const int64_t floats =
      plan::nchwc_floats(s.batch(), s.channels(), s.height(), s.width());
  const TierGuard guard;
  std::vector<float> scalar;
  for (const common::CpuTier tier :
       {common::CpuTier::kScalar, common::CpuTier::kAvx2}) {
    common::set_active_tier(tier);
    if (common::active_tier() != tier) {
      continue;  // host without AVX2
    }
    const std::string at = what + " tier=" + common::tier_name(tier);
    std::vector<float> dst(static_cast<size_t>(floats),
                           std::numeric_limits<float>::quiet_NaN());
    plan::zero_border(dst.data(), s.batch(), s.channels(), s.height(),
                      s.width());
    kernel(dst.data());
    for (int64_t i = 0; i < floats; ++i) {
      ASSERT_FALSE(std::isnan(dst[static_cast<size_t>(i)]))
          << at << ": float " << i << " left unwritten";
    }
    Tensor out(s);
    plan::convert_to_nchw(dst.data(), s.batch(), s.channels(), s.height(),
                          s.width(), out.raw());
    EXPECT_EQ(std::memcmp(out.raw(), oracle.raw(),
                          static_cast<size_t>(oracle.numel()) * sizeof(float)),
              0)
        << at << ": differs from the graph";
    if (scalar.empty()) {
      scalar = std::move(dst);
    } else {
      EXPECT_EQ(std::memcmp(scalar.data(), dst.data(),
                            static_cast<size_t>(floats) * sizeof(float)),
                0)
          << at << ": differs from the scalar tier";
    }
  }
}

TEST(NchwcKernels, TransposedConvMatchesGraphPlusSkipOnEveryTier) {
  constexpr int64_t kBatch = 2;
  constexpr int64_t kInH = 3;
  Rng rng(29);
  for (const int64_t cin : {1, 3, 6, 8, 10, 12, 17}) {
    for (const int64_t cout : {1, 3, 6, 8, 10, 12, 17}) {
      for (const int64_t in_w : {5, 13}) {
        // Half the layers carry a bias, so both epilogue shapes run.
        nn::ConvTranspose2d layer("up", cin, cout, 2, 2, 0,
                                  /*bias=*/(cin + cout) % 2 == 0, rng);
        randomize_state(layer, rng);
        const Tensor x = Tensor::normal(Shape::nchw(kBatch, cin, kInH, in_w),
                                        rng);
        const Tensor skip =
            Tensor::normal(Shape::nchw(kBatch, cout, 2 * kInH, 2 * in_w), rng);
        const InferenceModeGuard no_grad;
        const Tensor up = layer.forward(Variable::constant(x)).value();
        // The decoder's skip add: up += skip, elementwise.
        Tensor up_skip = up;
        for (int64_t i = 0; i < up_skip.numel(); ++i) {
          up_skip.at(i) += skip.at(i);
        }
        const plan::PackedConv pc = plan::pack_tconv(layer, "up");
        const std::vector<float> xb = to_blocked(x);
        const std::vector<float> sb = to_blocked(skip);
        for (const bool with_skip : {false, true}) {
          expect_nchwc_kernel(
              with_skip ? up_skip : up,
              [&](float* dst) {
                plan::tconv_nchwc(xb.data(), kBatch, kInH, in_w, pc, dst,
                                  with_skip ? sb.data() : nullptr);
              },
              "tconv " + std::to_string(cin) + "->" + std::to_string(cout) +
                  " w" + std::to_string(in_w) +
                  (with_skip ? " +skip" : ""));
        }
      }
    }
  }
}

TEST(NchwcKernels, StemConvsMatchGraphOnEveryTier) {
  constexpr int64_t kBatch = 2;
  constexpr int64_t kH = 5;
  constexpr float kFusionWeight = 0.35f;
  Rng rng(31);
  for (const int64_t cin : {1, 3}) {
    for (const int64_t cout : {1, 3, 8, 10, 17}) {
      for (const int64_t w : {7, 13}) {
        nn::ConvBnRelu stem("stem", cin, cout, 3, 1, 1, rng);
        randomize_state(stem, rng);
        stem.set_training(false);
        const Tensor x = Tensor::normal(Shape::nchw(kBatch, cin, kH, w), rng);
        const Tensor post =
            Tensor::normal(Shape::nchw(kBatch, cout, kH, w), rng);
        const InferenceModeGuard no_grad;
        const Tensor y = stem.forward(Variable::constant(x)).value();
        // The stage-0 fusion sum the plan folds into the stem's epilogue:
        // fused = r + w * d, the scaled addend rounded first.
        Tensor fused = y;
        for (int64_t i = 0; i < fused.numel(); ++i) {
          const float scaled = post.at(i) * kFusionWeight;
          fused.at(i) += scaled;
        }
        const plan::PackedConv pc =
            plan::pack_conv(stem.conv(), &stem.bn(), true, "stem");
        const std::vector<float> xb = to_blocked(x);
        const std::vector<float> pb = to_blocked(post);
        for (const bool with_post : {false, true}) {
          expect_nchwc_kernel(
              with_post ? fused : y,
              [&](float* dst) {
                plan::conv_nchwc(xb.data(), kBatch, kH, w, pc, dst, kH, w,
                                 nullptr, with_post ? pb.data() : nullptr,
                                 kFusionWeight);
              },
              "stem " + std::to_string(cin) + "->" + std::to_string(cout) +
                  " w" + std::to_string(w) + (with_post ? " +post" : ""));
        }
      }
    }
  }
}

TEST(NchwcKernels, DirectConvTileSweep) {
  constexpr int64_t kBatch = 2;
  constexpr float kFusionWeights[] = {0.0f, 0.37f, 1.0f};
  Rng rng(37);
  int64_t variant = 0;  // rotates the epilogue, height and input parity
  for (const int64_t cout : {1, 4, 8, 12, 16, 20, 24, 32}) {
    for (const int64_t cin : {1, 3, 8, 12, 17}) {
      for (const int64_t kernel : {1, 3}) {
        for (const int64_t stride : {1, 2}) {
          const int64_t pad = kernel == 3 ? 1 : 0;
          nn::Conv2d conv("sweep", cin, cout, kernel, stride, pad,
                          /*bias=*/(cin + cout + kernel) % 2 == 0, rng);
          nn::BatchNorm2d bn("sweep.bn", cout);
          randomize_state(conv, rng);
          randomize_state(bn, rng);
          bn.set_training(false);
          for (const int64_t out_w :
               {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 48}) {
            for (int rep = 0; rep < 2; ++rep, ++variant) {
              const bool with_bn = (variant & 1) != 0;
              const bool relu = (variant & 2) != 0;
              const bool with_pre = (variant & 4) != 0;
              const int64_t post_mode = (variant >> 3) % 4;  // 0: no post
              const int64_t out_h = 1 + variant % 3;
              // Stride 2 alternates odd and even input extents, so the
              // window's last column is the right border or an interior one.
              const int64_t odd = stride == 2 ? (variant >> 1) % 2 : 0;
              const int64_t in_h = stride * out_h - odd;
              const int64_t in_w = stride * out_w - odd;
              const Tensor x =
                  Tensor::normal(Shape::nchw(kBatch, cin, in_h, in_w), rng);
              const Shape out_shape = Shape::nchw(kBatch, cout, out_h, out_w);
              const Tensor pre = Tensor::normal(out_shape, rng);
              const Tensor post = Tensor::normal(out_shape, rng);
              const float weight =
                  post_mode == 0 ? 1.0f : kFusionWeights[post_mode - 1];
              // The graph computes conv (+bias) -> BN (-> ReLU when no
              // shortcut comes first); the rest of the chain is the
              // documented epilogue: +pre -> ReLU -> +weight * post.
              const InferenceModeGuard no_grad;
              Variable y = conv.forward(Variable::constant(x));
              if (with_bn) {
                y = bn.forward(y);
              }
              if (relu && !with_pre) {
                y = autograd::relu(y);
              }
              Tensor oracle = y.value();
              ASSERT_EQ(oracle.shape(), out_shape);
              for (int64_t i = 0; i < oracle.numel(); ++i) {
                float v = oracle.at(i);
                if (with_pre) {
                  v += pre.at(i);
                  if (relu) {
                    v = v > 0.0f ? v : 0.0f;
                  }
                }
                if (post_mode != 0) {
                  if (weight != 1.0f) {
                    const float scaled = post.at(i) * weight;
                    v += scaled;
                  } else {
                    v += post.at(i);
                  }
                }
                oracle.at(i) = v;
              }
              const plan::PackedConv pc = plan::pack_conv(
                  conv, with_bn ? &bn : nullptr, relu, "sweep");
              const std::vector<float> xb = to_blocked(x);
              const std::vector<float> preb = to_blocked(pre);
              const std::vector<float> postb = to_blocked(post);
              expect_nchwc_kernel(
                  oracle,
                  [&](float* dst) {
                    plan::conv_nchwc(xb.data(), kBatch, in_h, in_w, pc, dst,
                                     out_h, out_w,
                                     with_pre ? preb.data() : nullptr,
                                     post_mode != 0 ? postb.data() : nullptr,
                                     weight);
                  },
                  "conv" + std::to_string(kernel) + "/s" +
                      std::to_string(stride) + " " + std::to_string(cin) +
                      "->" + std::to_string(cout) + " out " +
                      std::to_string(out_h) + "x" + std::to_string(out_w) +
                      (with_bn ? " bn" : "") + (relu ? " relu" : "") +
                      (with_pre ? " pre" : "") +
                      (post_mode != 0 ? " post*" + std::to_string(weight)
                                      : ""));
              if (HasFatalFailure()) {
                return;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace roadfusion::autograd
