// AVX2 kernel TU — the only file in the repository compiled with
// -mavx2 -mfma (see CMakeLists.txt in this directory). See gemm_avx2.hpp
// for the ODR ground rules: no heavyweight headers, raw-pointer operands,
// all helpers in the anonymous namespace so nothing compiled with AVX2
// flags can be merged into another TU's symbol.
#include "autograd/gemm_avx2.hpp"

#include <cstdio>
#include <cstdlib>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define ROADFUSION_GEMM_AVX2 1
#endif

namespace roadfusion::autograd::kernels {
namespace {

constexpr int64_t kMr = kAvx2TileRows;  // 6
constexpr int64_t kNr = 16;             // two YMM lanes of fp32

int64_t round_up(int64_t value, int64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

/// Scalar epilogue, the same op order as epilogue_scalar in gemm.cpp
/// (bias, BN affine, ReLU) — duplicated here because that helper lives in
/// another TU's anonymous namespace and this TU must stay self-contained.
inline float epilogue_value(float v, int64_t ch, const ConvEpilogue& epi) {
  if (epi.bias != nullptr) {
    v += epi.bias[ch];
  }
  if (epi.bn_mean != nullptr) {
    const float xh = (v - epi.bn_mean[ch]) * epi.bn_invstd[ch];
    v = epi.bn_gamma[ch] * xh + epi.bn_beta[ch];
  }
  if (epi.relu) {
    v = v > 0.0f ? v : 0.0f;
  }
  return v;
}

#if defined(ROADFUSION_GEMM_AVX2)

/// One 6x16 FMA tile: C[0:mrem, 0:16] = panel * B by overwrite, epilogue
/// applied while the accumulators are in registers. The panel is
/// reduction-major with zero-padded rows, so all six rows compute
/// unconditionally and only mrem store. 12 accumulators + b0/b1 + the A
/// broadcast use 15 of the 16 YMM registers.
void tile_16x6(int64_t k, const float* panel, const float* b, int64_t ldb,
               float* c, int64_t ldc, int64_t mrem, int64_t row0,
               const ConvEpilogue* epi) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const float* ap = panel + p * kMr;
    const float* bp = b + p * ldb;
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    __m256 a = _mm256_broadcast_ss(ap);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(ap + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(ap + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(ap + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(ap + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(ap + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
  }
  __m256 acc[kMr][2] = {{c00, c01}, {c10, c11}, {c20, c21},
                        {c30, c31}, {c40, c41}, {c50, c51}};
  for (int64_t i = 0; i < mrem; ++i) {
    __m256 v0 = acc[i][0];
    __m256 v1 = acc[i][1];
    if (epi != nullptr) {
      // Vector epilogue: 8 independent IEEE single ops per stage, the
      // same per-element sequence as epilogue_value (non-FMA, so the
      // epilogue itself never widens the kernel's tolerance envelope).
      const int64_t ch = row0 + i;
      if (epi->bias != nullptr) {
        const __m256 bias = _mm256_set1_ps(epi->bias[ch]);
        v0 = _mm256_add_ps(v0, bias);
        v1 = _mm256_add_ps(v1, bias);
      }
      if (epi->bn_mean != nullptr) {
        const __m256 mean = _mm256_set1_ps(epi->bn_mean[ch]);
        const __m256 invstd = _mm256_set1_ps(epi->bn_invstd[ch]);
        const __m256 gamma = _mm256_set1_ps(epi->bn_gamma[ch]);
        const __m256 beta = _mm256_set1_ps(epi->bn_beta[ch]);
        v0 = _mm256_add_ps(
            _mm256_mul_ps(gamma,
                          _mm256_mul_ps(_mm256_sub_ps(v0, mean), invstd)),
            beta);
        v1 = _mm256_add_ps(
            _mm256_mul_ps(gamma,
                          _mm256_mul_ps(_mm256_sub_ps(v1, mean), invstd)),
            beta);
      }
      if (epi->relu) {
        const __m256 zero = _mm256_setzero_ps();
        v0 = _mm256_max_ps(v0, zero);
        v1 = _mm256_max_ps(v1, zero);
      }
    }
    float* c_row = c + i * ldc;
    _mm256_storeu_ps(c_row, v0);
    _mm256_storeu_ps(c_row + 8, v1);
  }
}

/// One 8x6 FMA half-tile for the right edge (8 <= n remainder < 16), so
/// narrow GEMMs (deep encoder stages have N as small as 12) do not fall
/// all the way to the scalar path. Same contraction order as tile_16x6's
/// low half.
void tile_8x6(int64_t k, const float* panel, const float* b, int64_t ldb,
              float* c, int64_t ldc, int64_t mrem, int64_t row0,
              const ConvEpilogue* epi) {
  __m256 acc[kMr] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                     _mm256_setzero_ps(), _mm256_setzero_ps(),
                     _mm256_setzero_ps(), _mm256_setzero_ps()};
  for (int64_t p = 0; p < k; ++p) {
    const float* ap = panel + p * kMr;
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb);
    acc[0] = _mm256_fmadd_ps(_mm256_broadcast_ss(ap), b0, acc[0]);
    acc[1] = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 1), b0, acc[1]);
    acc[2] = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 2), b0, acc[2]);
    acc[3] = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 3), b0, acc[3]);
    acc[4] = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 4), b0, acc[4]);
    acc[5] = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 5), b0, acc[5]);
  }
  for (int64_t i = 0; i < mrem; ++i) {
    __m256 v = acc[i];
    if (epi != nullptr) {
      const int64_t ch = row0 + i;
      if (epi->bias != nullptr) {
        v = _mm256_add_ps(v, _mm256_set1_ps(epi->bias[ch]));
      }
      if (epi->bn_mean != nullptr) {
        v = _mm256_add_ps(
            _mm256_mul_ps(
                _mm256_set1_ps(epi->bn_gamma[ch]),
                _mm256_mul_ps(_mm256_sub_ps(v, _mm256_set1_ps(epi->bn_mean[ch])),
                              _mm256_set1_ps(epi->bn_invstd[ch]))),
            _mm256_set1_ps(epi->bn_beta[ch]));
      }
      if (epi->relu) {
        v = _mm256_max_ps(v, _mm256_setzero_ps());
      }
    }
    _mm256_storeu_ps(c + i * ldc, v);
  }
}

#endif  // ROADFUSION_GEMM_AVX2

}  // namespace

int64_t avx2_apack_floats(int64_t m, int64_t k) {
  return round_up(m, kMr) * k;
}

#if defined(ROADFUSION_GEMM_AVX2)

bool avx2_kernels_compiled() { return true; }

void avx2_gemm_infer(const float* a, int64_t m, int64_t k, float* apack,
                     const float* b, int64_t ldb, int64_t n, float* c,
                     int64_t ldc, const ConvEpilogue* epi) {
  // Pack A into 6-row reduction-major panels, rows beyond m zero-padded.
  for (int64_t ip = 0; ip < m; ip += kMr) {
    const int64_t rows = m - ip < kMr ? m - ip : kMr;
    float* dst = apack + ip * k;
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t r = 0; r < kMr; ++r) {
        *dst++ = r < rows ? a[(ip + r) * k + p] : 0.0f;
      }
    }
  }
  const int64_t n_main = n - n % kNr;
  for (int64_t ip = 0; ip < m; ip += kMr) {
    const float* panel = apack + ip * k;
    const int64_t mrem = m - ip < kMr ? m - ip : kMr;
    for (int64_t jp = 0; jp < n_main; jp += kNr) {
      tile_16x6(k, panel, b + jp, ldb, c + ip * ldc + jp, ldc, mrem, ip, epi);
    }
    int64_t edge = n_main;
    if (n - edge >= 8) {
      tile_8x6(k, panel, b + edge, ldb, c + ip * ldc + edge, ldc, mrem, ip,
               epi);
      edge += 8;
    }
    // Last few columns: scalar with __builtin_fmaf so the contraction
    // matches the vector tiles' FMA accumulation.
    for (int64_t j = edge; j < n; ++j) {
      float acc[kMr] = {};
      for (int64_t p = 0; p < k; ++p) {
        const float bv = b[p * ldb + j];
        const float* ap = panel + p * kMr;
        for (int64_t r = 0; r < kMr; ++r) {
          acc[r] = __builtin_fmaf(ap[r], bv, acc[r]);
        }
      }
      for (int64_t r = 0; r < mrem; ++r) {
        c[(ip + r) * ldc + j] =
            epi != nullptr ? epilogue_value(acc[r], ip + r, *epi) : acc[r];
      }
    }
  }
}

#else  // !ROADFUSION_GEMM_AVX2

bool avx2_kernels_compiled() { return false; }

namespace {
[[noreturn]] void avx2_unavailable(const char* fn) {
  std::fprintf(stderr,
               "%s: AVX2 kernels were not compiled into this binary\n", fn);
  std::abort();
}
}  // namespace

void avx2_gemm_infer(const float*, int64_t, int64_t, float*, const float*,
                     int64_t, int64_t, float*, int64_t,
                     const ConvEpilogue*) {
  avx2_unavailable("avx2_gemm_infer");
}

#endif  // ROADFUSION_GEMM_AVX2

}  // namespace roadfusion::autograd::kernels
