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
// Six output columns share every weight-tap load; 96/48/24/12/6-wide
// encoder rows tile exactly. 6 accumulators + weight + broadcast stay
// well inside the 16 YMM registers.
constexpr int64_t kCols = 6;

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

/// The direct conv for a compile-time kernel size, so the tap loops
/// unroll; the per-element chain is the same for every K.
template <int64_t K>
void conv_body(const NchwcConvArgs& a) {
  constexpr int64_t k = K;
  const int64_t s = a.stride;
  constexpr int64_t tap0 = 1 - (k == 3 ? 1 : 0);
  const int64_t srow = (a.in_w + 2) * kLanes;
  const int64_t splane = (a.in_h + 2) * srow;
  const int64_t cb = (a.cin + kLanes - 1) / kLanes;
  const int64_t ssample = cb * splane;
  const int64_t drow = (a.out_w + 2) * kLanes;
  const int64_t dplane = (a.out_h + 2) * drow;
  const int64_t ocb = (a.cout + kLanes - 1) / kLanes;
  const int64_t dsample = ocb * dplane;
  const bool scale_post = a.fusion_weight != 1.0f;
  const __m256 fw = _mm256_set1_ps(a.fusion_weight);
  const int64_t col_step = s * kLanes;  // float stride between output cols
  for (int64_t img = 0; img < a.n; ++img) {
    const float* simg = a.src + img * ssample;
    for (int64_t ob = 0; ob < ocb; ++ob) {
      const float* wblock = a.w + ob * a.cin * k * k * kLanes;
      float* dplane_p = a.dst + img * dsample + ob * dplane;
      const float* pre_p =
          a.pre ? a.pre + img * dsample + ob * dplane : nullptr;
      const float* post_p =
          a.post ? a.post + img * dsample + ob * dplane : nullptr;
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
      for (int64_t oy = 0; oy < a.out_h; ++oy) {
        int64_t ox = 0;
        for (; ox + kCols <= a.out_w; ox += kCols) {
          __m256 c0 = _mm256_setzero_ps(), c1 = _mm256_setzero_ps();
          __m256 c2 = _mm256_setzero_ps(), c3 = _mm256_setzero_ps();
          __m256 c4 = _mm256_setzero_ps(), c5 = _mm256_setzero_ps();
          const float* wptr = wblock;
          for (int64_t ic = 0; ic < a.cin; ++ic) {
            const float* sbase =
                simg + (ic / kLanes) * splane + (ic % kLanes);
            for (int64_t ky = 0; ky < k; ++ky) {
              const float* srow_p = sbase + (oy * s + ky + tap0) * srow +
                                    (ox * s + tap0) * kLanes;
              for (int64_t kx = 0; kx < k; ++kx) {
                const float* tap = srow_p + kx * kLanes;
                const __m256 wv = _mm256_loadu_ps(wptr);
                c0 = _mm256_add_ps(
                    c0, _mm256_mul_ps(wv, _mm256_broadcast_ss(tap)));
                c1 = _mm256_add_ps(
                    c1,
                    _mm256_mul_ps(wv, _mm256_broadcast_ss(tap + col_step)));
                c2 = _mm256_add_ps(
                    c2, _mm256_mul_ps(
                            wv, _mm256_broadcast_ss(tap + 2 * col_step)));
                c3 = _mm256_add_ps(
                    c3, _mm256_mul_ps(
                            wv, _mm256_broadcast_ss(tap + 3 * col_step)));
                c4 = _mm256_add_ps(
                    c4, _mm256_mul_ps(
                            wv, _mm256_broadcast_ss(tap + 4 * col_step)));
                c5 = _mm256_add_ps(
                    c5, _mm256_mul_ps(
                            wv, _mm256_broadcast_ss(tap + 5 * col_step)));
                wptr += kLanes;
              }
            }
          }
          const int64_t at = ((oy + 1) * (a.out_w + 2) + (ox + 1)) * kLanes;
          const __m256 acc[kCols] = {c0, c1, c2, c3, c4, c5};
          for (int64_t c = 0; c < kCols; ++c) {
            const int64_t col_at = at + c * kLanes;
            store_column(acc[c], dplane_p + col_at,
                         pre_p ? pre_p + col_at : nullptr,
                         post_p ? post_p + col_at : nullptr, e, fw,
                         scale_post);
          }
        }
        for (; ox < a.out_w; ++ox) {
          __m256 acc = _mm256_setzero_ps();
          const float* wptr = wblock;
          for (int64_t ic = 0; ic < a.cin; ++ic) {
            const float* sbase =
                simg + (ic / kLanes) * splane + (ic % kLanes);
            for (int64_t ky = 0; ky < k; ++ky) {
              const float* srow_p = sbase + (oy * s + ky + tap0) * srow +
                                    (ox * s + tap0) * kLanes;
              for (int64_t kx = 0; kx < k; ++kx) {
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(
                             _mm256_loadu_ps(wptr),
                             _mm256_broadcast_ss(srow_p + kx * kLanes)));
                wptr += kLanes;
              }
            }
          }
          const int64_t at = ((oy + 1) * (a.out_w + 2) + (ox + 1)) * kLanes;
          store_column(acc, dplane_p + at, pre_p ? pre_p + at : nullptr,
                       post_p ? post_p + at : nullptr, e, fw, scale_post);
        }
      }
    }
  }
}

}  // namespace

bool conv_nchwc_avx2(const NchwcConvArgs& a) {
  if (a.kernel == 3) {
    conv_body<3>(a);
  } else if (a.kernel == 1) {
    conv_body<1>(a);
  } else {
    return false;
  }
  return true;
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
