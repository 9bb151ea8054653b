#include "plan/nchwc.hpp"

#include <algorithm>
#include <cstring>

#include "autograd/ops.hpp"
#include "common/check.hpp"
#include "common/cpu.hpp"
#include "nn/layers.hpp"
#include "plan/nchwc_avx2.hpp"

namespace roadfusion::plan {

namespace {

/// Copies `count` per-channel values into a lane-padded array (padded
/// lanes stay zero).
std::vector<float> lane_pad(const float* values, int64_t count) {
  std::vector<float> out(static_cast<size_t>(blocks_of(count) * kLanes), 0.0f);
  for (int64_t c = 0; c < count; ++c) {
    out[static_cast<size_t>(c)] = values[c];
  }
  return out;
}

}  // namespace

PackedConv pack_conv(const nn::Conv2d& conv, const nn::BatchNorm2d* bn,
                     bool relu, std::string name) {
  PackedConv pc;
  pc.name = std::move(name);
  pc.cin = conv.in_channels();
  pc.cout = conv.out_channels();
  pc.kernel = conv.geometry().kernel;
  pc.stride = conv.geometry().stride;
  ROADFUSION_CHECK((pc.kernel == 3 && conv.geometry().padding == 1) ||
                       (pc.kernel == 1 && conv.geometry().padding == 0),
                   "pack_conv: unsupported geometry for " << pc.name);
  const int64_t k = pc.kernel;
  const int64_t ocb = blocks_of(pc.cout);
  pc.w.assign(static_cast<size_t>(ocb * pc.cin * k * k * kLanes), 0.0f);
  const float* wsrc = conv.weight_value().raw();
  for (int64_t oc = 0; oc < pc.cout; ++oc) {
    const int64_t ob = oc / kLanes;
    const int64_t lane = oc % kLanes;
    for (int64_t ic = 0; ic < pc.cin; ++ic) {
      for (int64_t t = 0; t < k * k; ++t) {
        pc.w[static_cast<size_t>(
            (((ob * pc.cin + ic) * k * k) + t) * kLanes + lane)] =
            wsrc[((oc * pc.cin + ic) * k * k) + t];
      }
    }
  }
  if (const tensor::Tensor* bias = conv.bias_value()) {
    pc.bias = lane_pad(bias->raw(), pc.cout);
  }
  if (bn != nullptr) {
    // Snapshot the eval-BN factors batch_norm2d's eval branch computes,
    // invstd through its own formula.
    ROADFUSION_CHECK(!bn->training(),
                     "pack_conv: " << pc.name << " needs eval-mode batch norm");
    pc.bn_mean = lane_pad(bn->running_mean().raw(), pc.cout);
    // Lane-padded variances, turned into invstd in place (padded lanes
    // stay 0).
    pc.bn_invstd = lane_pad(bn->running_var().raw(), pc.cout);
    for (int64_t c = 0; c < pc.cout; ++c) {
      float& v = pc.bn_invstd[static_cast<size_t>(c)];
      v = autograd::batch_norm_eval_invstd(v);
    }
    pc.bn_gamma = lane_pad(bn->gamma_value().raw(), pc.cout);
    pc.bn_beta = lane_pad(bn->beta_value().raw(), pc.cout);
  }
  pc.relu = relu;
  return pc;
}

PackedConv pack_tconv(const nn::ConvTranspose2d& conv, std::string name) {
  PackedConv pc;
  pc.name = std::move(name);
  pc.cin = conv.in_channels();
  pc.cout = conv.out_channels();
  pc.kernel = 2;
  pc.stride = 2;
  pc.transposed = true;
  ROADFUSION_CHECK(conv.geometry().kernel == 2 && conv.geometry().stride == 2 &&
                       conv.geometry().padding == 0,
                   "pack_tconv: unsupported geometry for " << pc.name);
  pc.w.assign(static_cast<size_t>(blocks_of(pc.cout) * pc.cin * 4 * kLanes),
              0.0f);
  const float* wsrc = conv.weight_value().raw();  // (cin, cout, 2, 2)
  for (int64_t ic = 0; ic < pc.cin; ++ic) {
    for (int64_t oc = 0; oc < pc.cout; ++oc) {
      for (int64_t t = 0; t < 4; ++t) {
        pc.w[static_cast<size_t>(
            (((oc / kLanes) * pc.cin + ic) * 4 + t) * kLanes + oc % kLanes)] =
            wsrc[(ic * pc.cout + oc) * 4 + t];
      }
    }
  }
  if (const tensor::Tensor* bias = conv.bias_value()) {
    pc.bias = lane_pad(bias->raw(), pc.cout);
  }
  return pc;
}

void zero_border(float* p, int64_t n, int64_t c, int64_t h, int64_t w) {
  const int64_t row = (w + 2) * kLanes;
  const int64_t plane = (h + 2) * row;
  for (int64_t b = 0; b < n * blocks_of(c); ++b) {
    float* base = p + b * plane;
    std::fill(base, base + row, 0.0f);
    for (int64_t y = 1; y <= h; ++y) {
      std::fill(base + y * row, base + y * row + kLanes, 0.0f);
      std::fill(base + (y + 1) * row - kLanes, base + (y + 1) * row, 0.0f);
    }
    std::fill(base + (h + 1) * row, base + plane, 0.0f);
  }
}

void convert_to_nchwc(const float* src, int64_t n, int64_t c, int64_t h,
                      int64_t w, float* dst) {
  const int64_t row = (w + 2) * kLanes;
  const int64_t plane = (h + 2) * row;
  const int64_t cb = blocks_of(c);
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t b = 0; b < cb; ++b) {
      const int64_t real = std::min(kLanes, c - b * kLanes);
      const float* s = src + (img * c + b * kLanes) * h * w;
      float* d = dst + (img * cb + b) * plane;
      for (int64_t y = 0; y < h; ++y) {
        float* drow = d + (y + 1) * row + kLanes;
        for (int64_t x = 0; x < w; ++x) {
          float* px = drow + x * kLanes;
          for (int64_t l = 0; l < kLanes; ++l) {
            px[l] = l < real ? s[l * h * w + y * w + x] : 0.0f;
          }
        }
      }
    }
  }
}

void convert_to_nchw(const float* src, int64_t n, int64_t c, int64_t h,
                     int64_t w, float* dst) {
  const int64_t row = (w + 2) * kLanes;
  const int64_t plane = (h + 2) * row;
  const int64_t sample = blocks_of(c) * plane;
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* s =
          src + img * sample + (ch / kLanes) * plane + (ch % kLanes);
      float* d = dst + (img * c + ch) * h * w;
      for (int64_t y = 0; y < h; ++y) {
        const float* srow = s + (y + 1) * row + kLanes;
        for (int64_t x = 0; x < w; ++x) {
          d[y * w + x] = srow[x * kLanes];
        }
      }
    }
  }
}

namespace {

/// The AVX2 kernels' operand block for `pc` (output geometry and fused
/// slots left for the caller).
NchwcConvArgs avx2_args(const float* src, int64_t n, int64_t in_h,
                        int64_t in_w, const PackedConv& pc, float* dst) {
  NchwcConvArgs args;
  args.src = src;
  args.n = n;
  args.in_h = in_h;
  args.in_w = in_w;
  args.cin = pc.cin;
  args.cout = pc.cout;
  args.kernel = pc.kernel;
  args.stride = pc.stride;
  args.w = pc.w.data();
  args.bias = pc.bias.empty() ? nullptr : pc.bias.data();
  if (!pc.bn_mean.empty()) {
    args.bn_mean = pc.bn_mean.data();
    args.bn_invstd = pc.bn_invstd.data();
    args.bn_gamma = pc.bn_gamma.data();
    args.bn_beta = pc.bn_beta.data();
  }
  args.relu = pc.relu;
  args.dst = dst;
  return args;
}

}  // namespace

NchwcTile nchwc_avx2_tile(int64_t kernel, int64_t cout) {
  // Accumulators + weight vectors + one broadcast fit the 16 YMM
  // registers. A 3x3 tile holds 3 weights per block; one block x 8
  // columns beat two blocks x 4 on every plan shape (DESIGN.md §16). A
  // 1x1 tile holds one weight per block, so two blocks share each
  // broadcast when the layer has them.
  if (kernel == 3) {
    return NchwcTile{1, 8};
  }
  return blocks_of(cout) >= 2 ? NchwcTile{2, 6} : NchwcTile{1, 12};
}

void conv_nchwc(const float* src, int64_t n, int64_t in_h, int64_t in_w,
                const PackedConv& pc, float* dst, int64_t out_h,
                int64_t out_w, const float* pre, const float* post,
                float fusion_weight) {
  if (common::active_tier() >= common::CpuTier::kAvx2) {
    // The AVX2 lane kernel runs the identical per-element mul+add chain
    // (no FMA contraction), so switching tiers never changes a bit.
    NchwcConvArgs args = avx2_args(src, n, in_h, in_w, pc, dst);
    args.out_h = out_h;
    args.out_w = out_w;
    args.pre = pre;
    args.post = post;
    args.fusion_weight = fusion_weight;
    if (conv_nchwc_avx2(args)) {
      return;
    }
  }
  const int64_t k = pc.kernel;
  const int64_t s = pc.stride;
  // Logical input row of tap (ky=0, kx=0) for output (0, 0) is -padding;
  // the +1 border shift turns that into buffer row (1 - padding).
  const int64_t tap0 = 1 - (k == 3 ? 1 : 0);
  const int64_t srow = (in_w + 2) * kLanes;
  const int64_t splane = (in_h + 2) * srow;
  const int64_t ssample = blocks_of(pc.cin) * splane;
  const int64_t drow = (out_w + 2) * kLanes;
  const int64_t dplane = (out_h + 2) * drow;
  const int64_t ocb = blocks_of(pc.cout);
  const int64_t dsample = ocb * dplane;
  const bool has_bias = !pc.bias.empty();
  const bool has_bn = !pc.bn_mean.empty();
  const bool scale_post = fusion_weight != 1.0f;
  for (int64_t img = 0; img < n; ++img) {
    const float* simg = src + img * ssample;
    for (int64_t ob = 0; ob < ocb; ++ob) {
      const float* wblock = pc.w.data() + ob * pc.cin * k * k * kLanes;
      float* dplane_p = dst + img * dsample + ob * dplane;
      const float* pre_p = pre ? pre + img * dsample + ob * dplane : nullptr;
      const float* post_p =
          post ? post + img * dsample + ob * dplane : nullptr;
      const float* bias_l = has_bias ? pc.bias.data() + ob * kLanes : nullptr;
      const float* mean_l = has_bn ? pc.bn_mean.data() + ob * kLanes : nullptr;
      const float* invstd_l =
          has_bn ? pc.bn_invstd.data() + ob * kLanes : nullptr;
      const float* gamma_l =
          has_bn ? pc.bn_gamma.data() + ob * kLanes : nullptr;
      const float* beta_l = has_bn ? pc.bn_beta.data() + ob * kLanes : nullptr;
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox) {
          float acc[kLanes] = {};
          const float* wptr = wblock;
          for (int64_t ic = 0; ic < pc.cin; ++ic) {
            // Real lanes only: lanes past cin hold zero-padding which
            // must never enter the accumulation chain.
            const float* sbase =
                simg + (ic / kLanes) * splane + (ic % kLanes);
            for (int64_t ky = 0; ky < k; ++ky) {
              const float* srow_p =
                  sbase + (oy * s + ky + tap0) * srow + (ox * s + tap0) * kLanes;
              for (int64_t kx = 0; kx < k; ++kx) {
                const float a = srow_p[kx * kLanes];
                for (int64_t l = 0; l < kLanes; ++l) {
                  acc[l] += wptr[l] * a;
                }
                wptr += kLanes;
              }
            }
          }
          const int64_t at = ((oy + 1) * (out_w + 2) + (ox + 1)) * kLanes;
          float* dp = dplane_p + at;
          for (int64_t l = 0; l < kLanes; ++l) {
            float v = acc[l];
            if (has_bias) {
              v += bias_l[l];
            }
            if (has_bn) {
              const float xh = (v - mean_l[l]) * invstd_l[l];
              v = gamma_l[l] * xh + beta_l[l];
            }
            if (pre_p != nullptr) {
              v += pre_p[at + l];
            }
            if (pc.relu) {
              v = v > 0.0f ? v : 0.0f;
            }
            if (post_p != nullptr) {
              if (scale_post) {
                const float scaled = post_p[at + l] * fusion_weight;
                v += scaled;
              } else {
                v += post_p[at + l];
              }
            }
            dp[l] = v;
          }
        }
      }
    }
  }
}

void tconv_nchwc(const float* src, int64_t n, int64_t in_h, int64_t in_w,
                 const PackedConv& pc, float* dst, const float* pre) {
  const int64_t out_w = 2 * in_w;
  if (common::active_tier() >= common::CpuTier::kAvx2) {
    NchwcConvArgs args = avx2_args(src, n, in_h, in_w, pc, dst);
    args.out_h = 2 * in_h;
    args.out_w = out_w;
    args.pre = pre;
    if (tconv_nchwc_avx2(args)) {
      return;
    }
  }
  const int64_t srow = (in_w + 2) * kLanes;
  const int64_t splane = (in_h + 2) * srow;
  const int64_t ssample = blocks_of(pc.cin) * splane;
  const int64_t dplane = (2 * in_h + 2) * (out_w + 2) * kLanes;
  const int64_t ocb = blocks_of(pc.cout);
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t ob = 0; ob < ocb; ++ob) {
      const float* bias_l =
          pc.bias.empty() ? nullptr : pc.bias.data() + ob * kLanes;
      const int64_t dblock = (img * ocb + ob) * dplane;
      for (int64_t iy = 0; iy < in_h; ++iy) {
        for (int64_t ix = 0; ix < in_w; ++ix) {
          const float* spx =
              src + img * ssample + (iy + 1) * srow + (ix + 1) * kLanes;
          const float* wptr = pc.w.data() + ob * pc.cin * 4 * kLanes;
          float acc[4][kLanes] = {};  // one chain per tap and lane
          for (int64_t ic = 0; ic < pc.cin; ++ic) {
            // Real lanes only, as in conv_nchwc.
            const float a = spx[(ic / kLanes) * splane + (ic % kLanes)];
            for (int64_t t = 0; t < 4; ++t) {
              for (int64_t l = 0; l < kLanes; ++l) {
                acc[t][l] += wptr[t * kLanes + l] * a;
              }
            }
            wptr += 4 * kLanes;
          }
          for (int64_t t = 0; t < 4; ++t) {
            const int64_t at = dblock + ((2 * iy + t / 2 + 1) * (out_w + 2) +
                                         (2 * ix + t % 2 + 1)) *
                                            kLanes;
            for (int64_t l = 0; l < kLanes; ++l) {
              float v = 0.0f;
              v += acc[t][l];  // col2im's accumulate into a zeroed plane
              if (bias_l != nullptr) {
                v += bias_l[l];
              }
              if (pre != nullptr) {
                v += pre[at + l];
              }
              dst[at + l] = v;
            }
          }
        }
      }
    }
  }
}

void pool_difference(const float* r, const float* d, int64_t n, int64_t c,
                     int64_t h, int64_t w, float* pooled) {
  const int64_t row = (w + 2) * kLanes;
  const int64_t plane = (h + 2) * row;
  const int64_t cb = blocks_of(c);
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t b = 0; b < cb; ++b) {
      // One chain per real lane (channel), each in rows-then-columns
      // order, so every channel sums exactly as global_avg_pool's does.
      const int64_t real = std::min(kLanes, c - b * kLanes);
      const int64_t block = (img * cb + b) * plane;
      double acc[kLanes] = {};
      for (int64_t y = 0; y < h; ++y) {
        const int64_t at = block + (y + 1) * row + kLanes;
        for (int64_t x = 0; x < w; ++x) {
          for (int64_t l = 0; l < real; ++l) {
            const float diff = r[at + x * kLanes + l] - d[at + x * kLanes + l];
            acc[l] += diff;
          }
        }
      }
      for (int64_t l = 0; l < real; ++l) {
        pooled[img * c + b * kLanes + l] =
            static_cast<float>(acc[l] / static_cast<double>(h * w));
      }
    }
  }
}

void awn_accumulate(float* r, const float* d, int64_t n,
                    int64_t sample_floats, const float* weight,
                    float fusion_weight) {
  for (int64_t img = 0; img < n; ++img) {
    const float ws = weight[img];
    float* rs = r + img * sample_floats;
    const float* ds = d + img * sample_floats;
    for (int64_t i = 0; i < sample_floats; ++i) {
      const float matched = ws * ds[i];  // scale_per_sample's ws * x
      if (fusion_weight == 1.0f) {
        rs[i] += matched;
      } else {
        const float scaled = matched * fusion_weight;
        rs[i] += scaled;
      }
    }
  }
}

void add_in_place(float* dst, const float* src, int64_t floats) {
  for (int64_t i = 0; i < floats; ++i) {
    dst[i] += src[i];
  }
}

void accumulate(float* dst, const float* src, int64_t floats,
                float fusion_weight) {
  if (fusion_weight == 1.0f) {
    for (int64_t i = 0; i < floats; ++i) {
      dst[i] += src[i];
    }
  } else {
    for (int64_t i = 0; i < floats; ++i) {
      const float scaled = src[i] * fusion_weight;
      dst[i] += scaled;
    }
  }
}

}  // namespace roadfusion::plan
