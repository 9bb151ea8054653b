#include "autograd/gemm.hpp"

#include <algorithm>
#include <array>
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
constexpr int64_t kMr = 4;
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
/// accumulators start from C and live in registers for the whole kb loop,
/// so each output is one sequential chain over all of K whatever the Kc
/// blocking: C is read once and written once per block.
void micro_kernel(int64_t kb, const float* a_panel, const float* b,
                  int64_t b_stride, float* c, int64_t ldc, int64_t mrem,
                  int64_t nrem) {
#if defined(ROADFUSION_GEMM_SSE2)
  if (nrem == kNr && sse2_dispatch()) {
    // Full-width tile: 8 accumulator vectors. A rows beyond mrem are packed
    // zeros, so all four rows compute unconditionally; those rows neither
    // load from C (it may end there) nor store.
    const auto load = [&](int64_t i, int64_t half) {
      return i < mrem ? _mm_loadu_ps(c + i * ldc + 4 * half)
                      : _mm_setzero_ps();
    };
    __m128 c00 = load(0, 0), c01 = load(0, 1);
    __m128 c10 = load(1, 0), c11 = load(1, 1);
    __m128 c20 = load(2, 0), c21 = load(2, 1);
    __m128 c30 = load(3, 0), c31 = load(3, 1);
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
      _mm_storeu_ps(c + i * ldc, acc[i][0]);
      _mm_storeu_ps(c + i * ldc + 4, acc[i][1]);
    }
    return;
  }
#endif
  // Scalar path: non-SSE builds and the right-edge partial tiles. Bounds
  // the B reads by nrem — on the direct-B path the tile's tail columns
  // do not exist in the source matrix.
  float acc[kMr][kNr] = {};
  for (int64_t i = 0; i < mrem; ++i) {
    for (int64_t j = 0; j < nrem; ++j) {
      acc[i][j] = c[i * ldc + j];
    }
  }
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
    for (int64_t j = 0; j < nrem; ++j) {
      c[i * ldc + j] = acc[i][j];
    }
  }
}

/// Runs the full blocked loop nest, C += A * B over the row-major (m, n)
/// C, under the process-wide blocking config. Each call owns its packing
/// buffers, so concurrent GEMMs share nothing.
void gemm_block_loop(const MatView& a, const MatView& b, float* c, int64_t m,
                     int64_t n, int64_t k) {
  const BlockedGemmConfig& config = blocked_gemm_config();
  ROADFUSION_CHECK(config.mc >= 1 && config.kc >= 1 && config.nc >= 1,
                   "blocked_gemm: invalid blocking config (mc "
                       << config.mc << ", kc " << config.kc << ", nc "
                       << config.nc << ")");
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
                    int64_t k) {
  Tensor out(Shape::mat(m, n));  // zero-initialized
  gemm_block_loop(a, b, out.raw(), m, n, k);
  return out;
}

/// Checks the A * B operand shapes; returns (m, k, n).
std::array<int64_t, 3> matmul_dims(const Tensor& a, const Tensor& b) {
  ROADFUSION_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
                   "blocked_matmul needs rank-2 operands");
  const int64_t k = a.shape().dim(1);
  ROADFUSION_CHECK(b.shape().dim(0) == k,
                   "blocked_matmul inner dims mismatch: "
                       << a.shape().str() << " x " << b.shape().str());
  return {a.shape().dim(0), k, b.shape().dim(1)};
}

}  // namespace

BlockedGemmConfig& blocked_gemm_config() {
  static BlockedGemmConfig config;
  return config;
}

Tensor blocked_matmul(const Tensor& a, const Tensor& b) {
  const auto [m, k, n] = matmul_dims(a, b);
  return blocked_gemm({a.raw(), k, 1}, {b.raw(), n, 1}, m, n, k);
}

void blocked_matmul_into(const Tensor& a, const Tensor& b, float* c) {
  const auto [m, k, n] = matmul_dims(a, b);
  gemm_block_loop({a.raw(), k, 1}, {b.raw(), n, 1}, c, m, n, k);
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
  return blocked_gemm({a.raw(), 1, m}, {b.raw(), n, 1}, m, n, k);
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
  return blocked_gemm({a.raw(), k, 1}, {b.raw(), 1, k}, m, n, k);
}

}  // namespace roadfusion::autograd::kernels
