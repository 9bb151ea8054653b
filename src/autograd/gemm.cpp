#include "autograd/gemm.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/cpu.hpp"
#include "obs/trace.hpp"
#include "tensor/shape.hpp"

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define ROADFUSION_GEMM_SSE2 1
#endif

namespace roadfusion::autograd::kernels {
namespace {

using tensor::Shape;

// Register tile. 4x8 float accumulators occupy 8 of the 16 XMM registers
// guaranteed on baseline x86-64 (SSE2), leaving room for the two B loads
// and the A broadcast, so the whole tile lives in registers for the k loop.
constexpr int64_t kMr = kMicroTileRows;
constexpr int64_t kNr = 8;

/// Strided read-only view of a logical (rows, cols) matrix. Lets the same
/// packing routines serve A, A^T, B and B^T without copies.
struct MatView {
  const float* data;
  int64_t row_stride;
  int64_t col_stride;

  float at(int64_t r, int64_t c) const {
    return data[r * row_stride + c * col_stride];
  }
};

int64_t round_up(int64_t value, int64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

/// Runtime gate of the SSE2 fast paths. The compile-time #ifdef proves the
/// instructions exist in the binary; this proves the machine (or a
/// ROADFUSION_CPU_FEATURES override) allows executing them. The scalar
/// fallback computes the identical per-element sequence, so the gate never
/// changes results, only instruction selection.
inline bool sse2_dispatch() {
  return common::active_tier() >= common::CpuTier::kSse2;
}

/// Packs the (mb, kb) block of A at (i0, p0) into kMr-row panels,
/// reduction-major within each panel. Rows beyond mb pad with zeros so the
/// micro-kernel never branches on the row remainder.
void pack_a(const MatView& a, int64_t i0, int64_t mb, int64_t p0, int64_t kb,
            float* dst) {
  for (int64_t ip = 0; ip < mb; ip += kMr) {
    const int64_t rows = std::min<int64_t>(kMr, mb - ip);
    for (int64_t p = 0; p < kb; ++p) {
      for (int64_t r = 0; r < kMr; ++r) {
        *dst++ = r < rows ? a.at(i0 + ip + r, p0 + p) : 0.0f;
      }
    }
  }
}

/// Packs the (kb, nb) block of B at (p0, j0) into kNr-column panels,
/// reduction-major within each panel, zero-padded to full panel width.
void pack_b(const MatView& b, int64_t p0, int64_t kb, int64_t j0, int64_t nb,
            float* dst) {
  for (int64_t jp = 0; jp < nb; jp += kNr) {
    const int64_t cols = std::min<int64_t>(kNr, nb - jp);
    for (int64_t p = 0; p < kb; ++p) {
      for (int64_t j = 0; j < kNr; ++j) {
        *dst++ = j < cols ? b.at(p0 + p, j0 + jp + j) : 0.0f;
      }
    }
  }
}

/// kMr x kNr register-tiled micro-kernel:
/// C[0:mrem, 0:nrem] += sum_p a_panel[p] (x) b_row(p). A is always a packed
/// kMr-wide panel (reduction-major, zero-padded rows). B is addressed as
/// `b + p * b_stride`: either a packed kNr panel (b_stride == kNr) or, on
/// the no-copy fast path, a row-major source row (b_stride == ldb). The
/// accumulators live in registers for the whole kb loop; C is touched once.
void micro_kernel(int64_t kb, const float* a_panel, const float* b,
                  int64_t b_stride, float* c, int64_t ldc, int64_t mrem,
                  int64_t nrem) {
#if defined(ROADFUSION_GEMM_SSE2)
  if (nrem == kNr && sse2_dispatch()) {
    // Full-width tile: 8 accumulator vectors, A rows beyond mrem are packed
    // zeros so all four rows compute unconditionally and only mrem store.
    __m128 c00 = _mm_setzero_ps(), c01 = _mm_setzero_ps();
    __m128 c10 = _mm_setzero_ps(), c11 = _mm_setzero_ps();
    __m128 c20 = _mm_setzero_ps(), c21 = _mm_setzero_ps();
    __m128 c30 = _mm_setzero_ps(), c31 = _mm_setzero_ps();
    for (int64_t p = 0; p < kb; ++p) {
      const float* ap = a_panel + p * kMr;
      const float* bp = b + p * b_stride;
      const __m128 b0 = _mm_loadu_ps(bp);
      const __m128 b1 = _mm_loadu_ps(bp + 4);
      __m128 a = _mm_set1_ps(ap[0]);
      c00 = _mm_add_ps(c00, _mm_mul_ps(a, b0));
      c01 = _mm_add_ps(c01, _mm_mul_ps(a, b1));
      a = _mm_set1_ps(ap[1]);
      c10 = _mm_add_ps(c10, _mm_mul_ps(a, b0));
      c11 = _mm_add_ps(c11, _mm_mul_ps(a, b1));
      a = _mm_set1_ps(ap[2]);
      c20 = _mm_add_ps(c20, _mm_mul_ps(a, b0));
      c21 = _mm_add_ps(c21, _mm_mul_ps(a, b1));
      a = _mm_set1_ps(ap[3]);
      c30 = _mm_add_ps(c30, _mm_mul_ps(a, b0));
      c31 = _mm_add_ps(c31, _mm_mul_ps(a, b1));
    }
    const __m128 acc[kMr][2] = {
        {c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
    for (int64_t i = 0; i < mrem; ++i) {
      float* c_row = c + i * ldc;
      _mm_storeu_ps(c_row, _mm_add_ps(_mm_loadu_ps(c_row), acc[i][0]));
      _mm_storeu_ps(c_row + 4, _mm_add_ps(_mm_loadu_ps(c_row + 4), acc[i][1]));
    }
    return;
  }
#endif
  // Scalar path: non-SSE builds and the right-edge partial tiles. Bounds
  // the B reads by nrem — on the direct-B path the tile's tail columns
  // do not exist in the source matrix.
  float acc[kMr][kNr] = {};
  for (int64_t p = 0; p < kb; ++p) {
    const float* ap = a_panel + p * kMr;
    const float* bp = b + p * b_stride;
    for (int64_t i = 0; i < mrem; ++i) {
      const float av = ap[i];
      for (int64_t j = 0; j < nrem; ++j) {
        acc[i][j] += av * bp[j];
      }
    }
  }
  for (int64_t i = 0; i < mrem; ++i) {
    float* c_row = c + i * ldc;
    for (int64_t j = 0; j < nrem; ++j) {
      c_row[j] += acc[i][j];
    }
  }
}

/// Applies the epilogue stages to one scalar value of channel `ch`. The
/// op order (bias, then BN affine, then ReLU) and each operation mirror
/// the legacy separate-op chain exactly, keeping the fused result
/// bit-identical.
inline float epilogue_scalar(float v, int64_t ch, const ConvEpilogue& epi) {
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

/// Micro-kernel variant for the inference path: same register-tiled
/// accumulation as `micro_kernel`, but the C tile is written by OVERWRITE
/// (no load — C need not be zeroed) with the optional epilogue applied
/// while the accumulators are still in registers. `row0` is the absolute C
/// row of the tile's first row (the output-channel index for the
/// epilogue's per-channel parameters).
void micro_kernel_infer(int64_t kb, const float* a_panel, const float* b,
                        int64_t b_stride, float* c, int64_t ldc, int64_t mrem,
                        int64_t nrem, int64_t row0, const ConvEpilogue* epi) {
#if defined(ROADFUSION_GEMM_SSE2)
  if (nrem == kNr && sse2_dispatch()) {
    __m128 c00 = _mm_setzero_ps(), c01 = _mm_setzero_ps();
    __m128 c10 = _mm_setzero_ps(), c11 = _mm_setzero_ps();
    __m128 c20 = _mm_setzero_ps(), c21 = _mm_setzero_ps();
    __m128 c30 = _mm_setzero_ps(), c31 = _mm_setzero_ps();
    for (int64_t p = 0; p < kb; ++p) {
      const float* ap = a_panel + p * kMr;
      const float* bp = b + p * b_stride;
      const __m128 b0 = _mm_loadu_ps(bp);
      const __m128 b1 = _mm_loadu_ps(bp + 4);
      __m128 a = _mm_set1_ps(ap[0]);
      c00 = _mm_add_ps(c00, _mm_mul_ps(a, b0));
      c01 = _mm_add_ps(c01, _mm_mul_ps(a, b1));
      a = _mm_set1_ps(ap[1]);
      c10 = _mm_add_ps(c10, _mm_mul_ps(a, b0));
      c11 = _mm_add_ps(c11, _mm_mul_ps(a, b1));
      a = _mm_set1_ps(ap[2]);
      c20 = _mm_add_ps(c20, _mm_mul_ps(a, b0));
      c21 = _mm_add_ps(c21, _mm_mul_ps(a, b1));
      a = _mm_set1_ps(ap[3]);
      c30 = _mm_add_ps(c30, _mm_mul_ps(a, b0));
      c31 = _mm_add_ps(c31, _mm_mul_ps(a, b1));
    }
    __m128 acc[kMr][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
    for (int64_t i = 0; i < mrem; ++i) {
      __m128 v0 = acc[i][0];
      __m128 v1 = acc[i][1];
      if (epi != nullptr) {
        // Each vector stage is four independent IEEE single ops, identical
        // bit-for-bit to the scalar sequence in epilogue_scalar.
        const int64_t ch = row0 + i;
        if (epi->bias != nullptr) {
          const __m128 bias = _mm_set1_ps(epi->bias[ch]);
          v0 = _mm_add_ps(v0, bias);
          v1 = _mm_add_ps(v1, bias);
        }
        if (epi->bn_mean != nullptr) {
          const __m128 mean = _mm_set1_ps(epi->bn_mean[ch]);
          const __m128 invstd = _mm_set1_ps(epi->bn_invstd[ch]);
          const __m128 gamma = _mm_set1_ps(epi->bn_gamma[ch]);
          const __m128 beta = _mm_set1_ps(epi->bn_beta[ch]);
          v0 = _mm_add_ps(
              _mm_mul_ps(gamma, _mm_mul_ps(_mm_sub_ps(v0, mean), invstd)),
              beta);
          v1 = _mm_add_ps(
              _mm_mul_ps(gamma, _mm_mul_ps(_mm_sub_ps(v1, mean), invstd)),
              beta);
        }
        if (epi->relu) {
          // max(v, 0) == (v > 0 ? v : 0) including -0.0 and NaN operands:
          // maxps returns the second operand on false/unordered compares.
          const __m128 zero = _mm_setzero_ps();
          v0 = _mm_max_ps(v0, zero);
          v1 = _mm_max_ps(v1, zero);
        }
      }
      float* c_row = c + i * ldc;
      _mm_storeu_ps(c_row, v0);
      _mm_storeu_ps(c_row + 4, v1);
    }
    return;
  }
#endif
  float acc[kMr][kNr] = {};
  for (int64_t p = 0; p < kb; ++p) {
    const float* ap = a_panel + p * kMr;
    const float* bp = b + p * b_stride;
    for (int64_t i = 0; i < mrem; ++i) {
      const float av = ap[i];
      for (int64_t j = 0; j < nrem; ++j) {
        acc[i][j] += av * bp[j];
      }
    }
  }
  for (int64_t i = 0; i < mrem; ++i) {
    float* c_row = c + i * ldc;
    for (int64_t j = 0; j < nrem; ++j) {
      c_row[j] = epi != nullptr ? epilogue_scalar(acc[i][j], row0 + i, *epi)
                                : acc[i][j];
    }
  }
}

/// Runs the full blocked loop nest over the row-major (m, n) C, which must
/// be zero-initialized. Each call owns its packing buffers, so concurrent
/// GEMMs share nothing.
void gemm_block_loop(const MatView& a, const MatView& b, float* c, int64_t m,
                     int64_t n, int64_t k, const BlockedGemmConfig& config) {
  const int64_t mc = std::min(config.mc, m);
  const int64_t kc = std::min(config.kc, k);
  const int64_t nc = std::min(config.nc, n);
  // B is consumed in-place when its rows are contiguous (matmul / matmul_at)
  // and the whole reduction fits one Kc block: the micro-kernel then streams
  // 8-wide loads straight from the source and pack_b's full k x n copy —
  // as large as the im2col matrix itself on conv shapes — is skipped.
  // matmul_bt (col_stride == k) always packs, as does a k that spans
  // multiple Kc blocks where packing buys the cache residency back.
  const bool direct_b = b.col_stride == 1 && k <= kc;
  std::vector<float> a_pack(
      static_cast<size_t>(round_up(mc, kMr) * kc));
  std::vector<float> b_pack(
      direct_b ? 0 : static_cast<size_t>(round_up(nc, kNr) * kc));
  for (int64_t j0 = 0; j0 < n; j0 += nc) {
    const int64_t nb = std::min(nc, n - j0);
    for (int64_t p0 = 0; p0 < k; p0 += kc) {
      const int64_t kb = std::min(kc, k - p0);
      if (!direct_b) {
        // Spans are per cache-block, not per register tile, so tracing
        // overhead stays far off the micro-kernel's critical path.
        obs::ScopedSpan pack_span("gemm.pack_b");
        pack_b(b, p0, kb, j0, nb, b_pack.data());
      }
      for (int64_t i0 = 0; i0 < m; i0 += mc) {
        const int64_t mb = std::min(mc, m - i0);
        {
          obs::ScopedSpan pack_span("gemm.pack_a");
          pack_a(a, i0, mb, p0, kb, a_pack.data());
        }
        obs::ScopedSpan kernel_span("gemm.kernel");
        for (int64_t jp = 0; jp < nb; jp += kNr) {
          const float* b_tile =
              direct_b ? b.data + p0 * b.row_stride + j0 + jp
                       : b_pack.data() + (jp / kNr) * kb * kNr;
          const int64_t b_stride = direct_b ? b.row_stride : kNr;
          const int64_t nrem = std::min<int64_t>(kNr, nb - jp);
          for (int64_t ip = 0; ip < mb; ip += kMr) {
            micro_kernel(kb, a_pack.data() + (ip / kMr) * kb * kMr, b_tile,
                         b_stride, c + (i0 + ip) * n + j0 + jp, n,
                         std::min<int64_t>(kMr, mb - ip), nrem);
          }
        }
      }
    }
  }
}

/// Entry point shared by the three GEMM forms: allocates C and runs the
/// blocked loop over it.
Tensor blocked_gemm(const MatView& a, const MatView& b, int64_t m, int64_t n,
                    int64_t k, const BlockedGemmConfig& config) {
  ROADFUSION_CHECK(config.mc >= 1 && config.kc >= 1 && config.nc >= 1,
                   "blocked_gemm: invalid blocking config (mc "
                       << config.mc << ", kc " << config.kc << ", nc "
                       << config.nc << ")");
  Tensor out(Shape::mat(m, n));  // zero-initialized
  gemm_block_loop(a, b, out.raw(), m, n, k, config);
  return out;
}

}  // namespace

BlockedGemmConfig& blocked_gemm_config() {
  static BlockedGemmConfig config;
  return config;
}

Tensor blocked_matmul(const Tensor& a, const Tensor& b) {
  return blocked_matmul(a, b, blocked_gemm_config());
}

Tensor blocked_matmul(const Tensor& a, const Tensor& b,
                      const BlockedGemmConfig& config) {
  ROADFUSION_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
                   "blocked_matmul needs rank-2 operands");
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n = b.shape().dim(1);
  ROADFUSION_CHECK(b.shape().dim(0) == k,
                   "blocked_matmul inner dims mismatch: "
                       << a.shape().str() << " x " << b.shape().str());
  return blocked_gemm({a.raw(), k, 1}, {b.raw(), n, 1}, m, n, k, config);
}

Tensor blocked_matmul_at(const Tensor& a, const Tensor& b) {
  ROADFUSION_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
                   "blocked_matmul_at needs rank-2 operands");
  const int64_t k = a.shape().dim(0);
  const int64_t m = a.shape().dim(1);
  const int64_t n = b.shape().dim(1);
  ROADFUSION_CHECK(b.shape().dim(0) == k,
                   "blocked_matmul_at inner dims mismatch: "
                       << a.shape().str() << "^T x " << b.shape().str());
  return blocked_gemm({a.raw(), 1, m}, {b.raw(), n, 1}, m, n, k,
                      blocked_gemm_config());
}

Tensor blocked_matmul_bt(const Tensor& a, const Tensor& b) {
  ROADFUSION_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
                   "blocked_matmul_bt needs rank-2 operands");
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n = b.shape().dim(0);
  ROADFUSION_CHECK(b.shape().dim(1) == k,
                   "blocked_matmul_bt inner dims mismatch: "
                       << a.shape().str() << " x " << b.shape().str() << "^T");
  return blocked_gemm({a.raw(), k, 1}, {b.raw(), 1, k}, m, n, k,
                      blocked_gemm_config());
}

bool prepack_viable(int64_t m, int64_t k) {
  const BlockedGemmConfig& config = blocked_gemm_config();
  // Single (Mc, Kc) block: the blocked loop then packs A exactly once with
  // the full reduction in one panel, so a hoisted pack is byte-identical
  // and the monolithic k loop preserves the accumulation order.
  return m >= 1 && k >= 1 && m <= config.mc && k <= config.kc;
}

PackedA prepack_a(const float* a, int64_t row_stride, int64_t col_stride,
                  int64_t m, int64_t k) {
  ROADFUSION_CHECK(prepack_viable(m, k),
                   "prepack_a: (" << m << ", " << k
                                  << ") exceeds a single cache block");
  obs::ScopedSpan span("gemm.prepack");
  PackedA packed;
  packed.m = m;
  packed.k = k;
  packed.panels.resize(static_cast<size_t>(round_up(m, kMr) * k));
  pack_a({a, row_stride, col_stride}, 0, m, 0, k, packed.panels.data());
  return packed;
}

void gemm_prepacked(const PackedA& a, const float* b, int64_t ldb, int64_t n,
                    float* c, int64_t ldc, const ConvEpilogue* epi) {
  const int64_t m = a.m;
  const int64_t k = a.k;
  // Same tile walk as the general blocked loop's single-block direct-B
  // case; only the store differs (overwrite + fused epilogue).
  for (int64_t jp = 0; jp < n; jp += kNr) {
    const int64_t nrem = std::min<int64_t>(kNr, n - jp);
    for (int64_t ip = 0; ip < m; ip += kMr) {
      micro_kernel_infer(k, a.panels.data() + (ip / kMr) * k * kMr, b + jp,
                         ldb, c + ip * ldc + jp, ldc,
                         std::min<int64_t>(kMr, m - ip), nrem, ip, epi);
    }
  }
}

void apply_epilogue(float* c, int64_t m, int64_t n, const ConvEpilogue& epi) {
  for (int64_t i = 0; i < m; ++i) {
    float* row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      row[j] = epilogue_scalar(row[j], i, epi);
    }
  }
}

}  // namespace roadfusion::autograd::kernels
