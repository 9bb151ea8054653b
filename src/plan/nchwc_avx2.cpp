// AVX2 TU for the NCHWc8 direct and transposed convolutions — the only
// file in src/plan/ built with -mavx2 (see CMakeLists.txt here).
// Deliberately compiled WITHOUT -mfma and written with separate
// _mm256_mul_ps/_mm256_add_ps so each channel lane executes exactly the
// scalar kernels' accumulation chain: acc[l] += w[l] * a per (ic, ky, kx)
// tap in im2col row order (per ic, for the transposed conv).
// Helpers live in the anonymous namespace so nothing compiled with AVX2
// flags can ODR-merge into another TU.
#include "plan/nchwc_avx2.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#define ROADFUSION_NCHWC_AVX2 1
#endif

namespace roadfusion::plan {

#if defined(ROADFUSION_NCHWC_AVX2)

namespace {

constexpr int64_t kLanes = 8;

/// Per-output-block epilogue constants, loaded once per channel block.
struct EpiVecs {
  __m256 bias = _mm256_setzero_ps();
  __m256 mean = _mm256_setzero_ps();
  __m256 invstd = _mm256_setzero_ps();
  __m256 gamma = _mm256_setzero_ps();
  __m256 beta = _mm256_setzero_ps();
  bool has_bias = false;
  bool has_bn = false;
  bool relu = false;
};

EpiVecs epilogue_of(const NchwcConvArgs& a, int64_t ob) {
  EpiVecs e;
  if (a.bias != nullptr) {
    e.has_bias = true;
    e.bias = _mm256_loadu_ps(a.bias + ob * kLanes);
  }
  if (a.bn_mean != nullptr) {
    e.has_bn = true;
    e.mean = _mm256_loadu_ps(a.bn_mean + ob * kLanes);
    e.invstd = _mm256_loadu_ps(a.bn_invstd + ob * kLanes);
    e.gamma = _mm256_loadu_ps(a.bn_gamma + ob * kLanes);
    e.beta = _mm256_loadu_ps(a.bn_beta + ob * kLanes);
  }
  e.relu = a.relu;
  return e;
}

/// Replays the scalar epilogue chain on one 8-lane column:
/// +bias -> BN affine -> +pre -> ReLU -> +fusion_weight * post. max_ps
/// matches the scalar `v > 0 ? v : 0` on -0.0 and NaN because both pick
/// the +0.0 operand when the compare is false or unordered.
inline void store_column(__m256 v, float* dp, const float* pre_p,
                         const float* post_p, const EpiVecs& e, __m256 fw,
                         bool scale_post) {
  if (e.has_bias) {
    v = _mm256_add_ps(v, e.bias);
  }
  if (e.has_bn) {
    const __m256 xh = _mm256_mul_ps(_mm256_sub_ps(v, e.mean), e.invstd);
    v = _mm256_add_ps(_mm256_mul_ps(e.gamma, xh), e.beta);
  }
  if (pre_p != nullptr) {
    v = _mm256_add_ps(v, _mm256_loadu_ps(pre_p));
  }
  if (e.relu) {
    v = _mm256_max_ps(v, _mm256_setzero_ps());
  }
  if (post_p != nullptr) {
    __m256 p = _mm256_loadu_ps(post_p);
    if (scale_post) {
      p = _mm256_mul_ps(p, fw);
    }
    v = _mm256_add_ps(v, p);
  }
  _mm256_storeu_ps(dp, v);
}

/// Strides and epilogue operands shared by every tile of one conv call.
struct ConvCtx {
  const NchwcConvArgs* a = nullptr;
  int64_t srow = 0;    // floats per padded input row
  int64_t splane = 0;  // floats per input channel block
  int64_t dplane = 0;  // floats per output channel block
  bool scale_post = false;
  __m256 fw = _mm256_setzero_ps();
};

/// Runs the epilogue over a finished tile's `blocks` x `cols` columns
/// (`out` block-major) whose first column sits at float offset `at` of
/// block `ob`. Shared by every tile shape, so the epilogue's code exists
/// once rather than once per column of every instantiation.
[[gnu::noinline]] void store_tile(const ConvCtx& t, const __m256* out,
                                  int blocks, int cols, float* dimg,
                                  const float* pre_img, const float* post_img,
                                  const EpiVecs* epi, int64_t ob, int64_t at) {
  const __m256 fw = t.fw;
  const bool scale_post = t.scale_post;
  for (int b = 0; b < blocks; ++b) {
    const EpiVecs e = epi[b];  // a local copy the stores cannot alias
    const int64_t blk = (ob + b) * t.dplane + at;
    float* d = dimg + blk;
    const float* pre_p = pre_img != nullptr ? pre_img + blk : nullptr;
    const float* post_p = post_img != nullptr ? post_img + blk : nullptr;
    for (int c = 0; c < cols; ++c) {
      const int64_t off = c * kLanes;
      store_column(out[b * cols + c], d + off,
                   pre_p != nullptr ? pre_p + off : nullptr,
                   post_p != nullptr ? post_p + off : nullptr, e, fw,
                   scale_post);
    }
  }
}

/// One register tile of the direct conv: B output channel blocks x C
/// output columns of output row `oy`, starting at column `ox`.
///
/// Sliding window: for each (ic, ky) the tile loads the B*K weight
/// vectors once, then walks the W = (C-1)*S + K input columns the tile
/// reads in ascending order, broadcasting each column once and feeding
/// it to every output column c = (ix - kx) / S it touches, kx running
/// K-1 -> 0. Output c therefore receives its taps at ix = c*S + kx in
/// ascending ix, i.e. kx = 0, 1, ..., K-1 in order, inside the ky loop
/// inside the ic loop: exactly the scalar kernel's (ic, ky, kx) chain.
/// Input channels are walked by (cin block, lane), so the division by
/// the lane count stays out of the tap loops.
template <int K, int S, int B, int C>
void conv_tile(const ConvCtx& t, const float* simg, float* dimg,
               const float* pre_img, const float* post_img,
               const EpiVecs* epi, int64_t ob, int64_t oy, int64_t ox) {
  static_assert(B * C + B * K + 1 <= 16, "tile exceeds the YMM registers");
  constexpr int W = (C - 1) * S + K;  // input columns under the tile
  constexpr int64_t tap0 = K == 3 ? 0 : 1;  // pad 1 vs pad 0, border-shifted
  const NchwcConvArgs& a = *t.a;
  __m256 acc[B][C];
#pragma GCC unroll 16
  for (int b = 0; b < B; ++b) {
#pragma GCC unroll 16
    for (int c = 0; c < C; ++c) {
      acc[b][c] = _mm256_setzero_ps();
    }
  }
  const float* wblk[B];
#pragma GCC unroll 16
  for (int b = 0; b < B; ++b) {
    wblk[b] = a.w + (ob + b) * a.cin * K * K * kLanes;
  }
  const float* src0 =
      simg + (oy * S + tap0) * t.srow + (ox * S + tap0) * kLanes;
  int64_t woff = 0;
  for (int64_t ib = 0; ib * kLanes < a.cin; ++ib) {
    const float* sblk = src0 + ib * t.splane;
    const int64_t lanes =
        a.cin - ib * kLanes < kLanes ? a.cin - ib * kLanes : kLanes;
    for (int64_t lane = 0; lane < lanes; ++lane) {
      // Not unrolled: one row's weights, window and accumulators are
      // what fits the registers.
#pragma GCC unroll 1
      for (int ky = 0; ky < K; ++ky) {
        const float* row = sblk + lane + ky * t.srow;
        __m256 wv[B][K];
#pragma GCC unroll 16
        for (int b = 0; b < B; ++b) {
#pragma GCC unroll 3
          for (int kx = 0; kx < K; ++kx) {
            wv[b][kx] = _mm256_loadu_ps(wblk[b] + woff + kx * kLanes);
          }
        }
#pragma GCC unroll 32
        for (int ix = 0; ix < W; ++ix) {
          if (K == 1 && ix % S != 0) {
            continue;  // a 1x1 stride-2 tile skips the odd columns
          }
          const __m256 x = _mm256_broadcast_ss(row + ix * kLanes);
#pragma GCC unroll 3
          for (int kx = K - 1; kx >= 0; --kx) {
            const int off = ix - kx;
            if (off < 0 || off % S != 0 || off / S >= C) {
              continue;
            }
#pragma GCC unroll 16
            for (int b = 0; b < B; ++b) {
              acc[b][off / S] = _mm256_add_ps(
                  acc[b][off / S], _mm256_mul_ps(wv[b][kx], x));
            }
          }
        }
        woff += K * kLanes;
      }
    }
  }
  // Copied out rather than passed by address: taking acc's address would
  // keep the accumulators in memory through the tap loops.
  __m256 out[B * C];
#pragma GCC unroll 16
  for (int b = 0; b < B; ++b) {
#pragma GCC unroll 16
    for (int c = 0; c < C; ++c) {
      out[b * C + c] = acc[b][c];
    }
  }
  store_tile(t, out, B, C, dimg, pre_img, post_img, epi, ob,
             ((oy + 1) * (a.out_w + 2) + (ox + 1)) * kLanes);
}

/// Runs a tile of `cols` < C columns through the template of that width,
/// so a row's remainder keeps the same chain with a smaller tile.
template <int K, int S, int B, int C>
void conv_tail(const ConvCtx& t, const float* simg, float* dimg,
               const float* pre_img, const float* post_img,
               const EpiVecs* epi, int64_t ob, int64_t oy, int64_t ox,
               int64_t cols) {
  if constexpr (C > 1) {
    if (cols == C - 1) {
      conv_tile<K, S, B, C - 1>(t, simg, dimg, pre_img, post_img, epi, ob, oy,
                                ox);
    } else {
      conv_tail<K, S, B, C - 1>(t, simg, dimg, pre_img, post_img, epi, ob, oy,
                                ox, cols);
    }
  }
}

/// The B-block x C-column sweep over every output row of blocks
/// [ob, ob + B) of one image.
template <int K, int S, int B, int C>
void conv_rows(const ConvCtx& t, const float* simg, float* dimg,
               const float* pre_img, const float* post_img, int64_t ob) {
  const NchwcConvArgs& a = *t.a;
  EpiVecs epi[B];
  for (int b = 0; b < B; ++b) {
    epi[b] = epilogue_of(a, ob + b);
  }
  for (int64_t oy = 0; oy < a.out_h; ++oy) {
    int64_t ox = 0;
    for (; ox + C <= a.out_w; ox += C) {
      conv_tile<K, S, B, C>(t, simg, dimg, pre_img, post_img, epi, ob, oy,
                            ox);
    }
    if (ox < a.out_w) {
      conv_tail<K, S, B, C>(t, simg, dimg, pre_img, post_img, epi, ob, oy, ox,
                            a.out_w - ox);
    }
  }
}

/// Tiles every image with B-block groups; an odd last block runs the
/// one-block tile of the same width.
template <int K, int S, int B, int C>
void conv_body(const ConvCtx& t) {
  const NchwcConvArgs& a = *t.a;
  const int64_t ocb = (a.cout + kLanes - 1) / kLanes;
  const int64_t ssample = (a.cin + kLanes - 1) / kLanes * t.splane;
  const int64_t dsample = ocb * t.dplane;
  for (int64_t img = 0; img < a.n; ++img) {
    const float* simg = a.src + img * ssample;
    float* dimg = a.dst + img * dsample;
    const float* pre_img = a.pre != nullptr ? a.pre + img * dsample : nullptr;
    const float* post_img =
        a.post != nullptr ? a.post + img * dsample : nullptr;
    int64_t ob = 0;
    for (; ob + B <= ocb; ob += B) {
      conv_rows<K, S, B, C>(t, simg, dimg, pre_img, post_img, ob);
    }
    if constexpr (B > 1) {
      for (; ob < ocb; ++ob) {
        conv_rows<K, S, 1, C>(t, simg, dimg, pre_img, post_img, ob);
      }
    }
  }
}

/// Runs the tile nchwc_avx2_tile picked; false for a tile outside the
/// instantiated set.
template <int K, int S>
bool dispatch_tile(const ConvCtx& t, NchwcTile tile) {
  if constexpr (K == 3) {
    if (tile.blocks == 1 && tile.cols == 8) {
      conv_body<K, S, 1, 8>(t);
      return true;
    }
  } else {
    if (tile.blocks == 1 && tile.cols == 12) {
      conv_body<K, S, 1, 12>(t);
      return true;
    }
    if (tile.blocks == 2 && tile.cols == 6) {
      conv_body<K, S, 2, 6>(t);
      return true;
    }
  }
  return false;
}

}  // namespace

bool conv_nchwc_avx2(const NchwcConvArgs& a) {
  ConvCtx t;
  t.a = &a;
  t.srow = (a.in_w + 2) * kLanes;
  t.splane = (a.in_h + 2) * t.srow;
  t.dplane = (a.out_h + 2) * (a.out_w + 2) * kLanes;
  t.scale_post = a.fusion_weight != 1.0f;
  t.fw = _mm256_set1_ps(a.fusion_weight);
  const NchwcTile tile = nchwc_avx2_tile(a.kernel, a.cout);
  if (a.kernel == 3 && a.stride == 1) {
    return dispatch_tile<3, 1>(t, tile);
  }
  if (a.kernel == 3 && a.stride == 2) {
    return dispatch_tile<3, 2>(t, tile);
  }
  if (a.kernel == 1 && a.stride == 1) {
    return dispatch_tile<1, 1>(t, tile);
  }
  if (a.kernel == 1 && a.stride == 2) {
    return dispatch_tile<1, 2>(t, tile);
  }
  return false;
}

bool tconv_nchwc_avx2(const NchwcConvArgs& a) {
  const int64_t srow = (a.in_w + 2) * kLanes;
  const int64_t splane = (a.in_h + 2) * srow;
  const int64_t ssample = (a.cin + kLanes - 1) / kLanes * splane;
  const int64_t dplane = (a.out_h + 2) * (a.out_w + 2) * kLanes;
  const int64_t ocb = (a.cout + kLanes - 1) / kLanes;
  for (int64_t img = 0; img < a.n; ++img) {
    for (int64_t ob = 0; ob < ocb; ++ob) {
      const int64_t dblock = (img * ocb + ob) * dplane;
      for (int64_t iy = 0; iy < a.in_h; ++iy) {
        for (int64_t ix = 0; ix < a.in_w; ++ix) {
          const float* spx =
              a.src + img * ssample + (iy + 1) * srow + (ix + 1) * kLanes;
          const float* wptr = a.w + ob * a.cin * 4 * kLanes;
          // One accumulator per tap; each input value feeds all four.
          __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                           _mm256_setzero_ps(), _mm256_setzero_ps()};
          for (int64_t ic = 0; ic < a.cin; ++ic) {
            const __m256 x = _mm256_broadcast_ss(
                spx + (ic / kLanes) * splane + (ic % kLanes));
            for (int t = 0; t < 4; ++t) {
              acc[t] = _mm256_add_ps(
                  acc[t], _mm256_mul_ps(_mm256_loadu_ps(wptr + t * kLanes), x));
            }
            wptr += 4 * kLanes;
          }
          // Replays the scalar epilogue: 0 + acc (col2im) -> +bias -> +pre.
          for (int t = 0; t < 4; ++t) {
            const int64_t at = dblock + ((2 * iy + t / 2 + 1) * (a.out_w + 2) +
                                         (2 * ix + t % 2 + 1)) *
                                            kLanes;
            __m256 v = _mm256_add_ps(_mm256_setzero_ps(), acc[t]);
            if (a.bias != nullptr) {
              v = _mm256_add_ps(v, _mm256_loadu_ps(a.bias + ob * kLanes));
            }
            if (a.pre != nullptr) {
              v = _mm256_add_ps(v, _mm256_loadu_ps(a.pre + at));
            }
            _mm256_storeu_ps(a.dst + at, v);
          }
        }
      }
    }
  }
  return true;
}

#else  // !ROADFUSION_NCHWC_AVX2

bool conv_nchwc_avx2(const NchwcConvArgs&) { return false; }

bool tconv_nchwc_avx2(const NchwcConvArgs&) { return false; }

#endif

}  // namespace roadfusion::plan
