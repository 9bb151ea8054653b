// ConvProblem: the canonical per-shape key of the solver registry.
//
// Mirrors MIOpen's ProblemDescription: a convolution instance is identified
// by its input tensor (N/C/H/W), output channels (K), filter extents (R/S)
// and stride/pad. Every problem is fp32; the key keeps its literal "-fp32"
// element-type suffix so perf DB records stay byte-identical with files
// written when reduced precision existed (DESIGN.md §13). Solvers declare
// applicability against this key, the tuner benchmarks per key, and the
// perf DB stores one record per key string. The repository's convolutions are square (R == S, one stride
// and pad for both axes) and execute their GEMM per sample, so bindings are
// keyed with n == 1 regardless of batch size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace roadfusion::tune {

struct ConvProblem {
  int64_t n = 1;         ///< batch size (per-sample GEMM: always keyed as 1)
  int64_t c = 0;         ///< input channels
  int64_t h = 0;         ///< input height
  int64_t w = 0;         ///< input width
  int64_t k = 0;         ///< output channels
  int64_t r = 3;         ///< filter height
  int64_t s = 3;         ///< filter width (== r for this repository)
  int64_t stride = 1;
  int64_t pad = 0;
  // Transposed convolution (decoder upsampling). Keys get a "convt-"
  // prefix; c/h/w still describe the INPUT tensor and k the output
  // channels, but the lowered GEMM flips: wmat^T (c, k*r*s) times the
  // input plane (c, h*w).
  bool transposed = false;

  int64_t out_h() const {
    return transposed ? (h - 1) * stride - 2 * pad + r
                      : (h + 2 * pad - r) / stride + 1;
  }
  int64_t out_w() const {
    return transposed ? (w - 1) * stride - 2 * pad + s
                      : (w + 2 * pad - s) / stride + 1;
  }

  /// The GEMM this conv lowers to. Forward: (k, c*r*s) x (c*r*s, oh*ow).
  /// Transposed: (k*r*s, c) x (c, h*w) — the columns-producing A^T form,
  /// whose output col2im then scatters.
  int64_t gemm_m() const { return transposed ? k * r * s : k; }
  int64_t gemm_k() const { return transposed ? c : c * r * s; }
  int64_t gemm_n() const { return transposed ? h * w : out_h() * out_w(); }

  /// Multiply-accumulates of one sample's GEMM.
  int64_t macs() const { return gemm_m() * gemm_k() * gemm_n(); }

  /// All extents positive and the geometry yields a non-empty output.
  bool valid() const;

  /// Canonical key string, e.g. "conv-n1-c3-h32-w96-k8-r3-s3-st1-p1-fp32"
  /// ("convt-..." for transposed problems). This is the perf DB's record
  /// key; it contains no whitespace.
  std::string key() const;

  /// Inverse of key(); nullopt on any malformed string, including one
  /// whose element-type suffix is not "fp32" (a perf DB skips and counts
  /// such a record).
  static std::optional<ConvProblem> parse_key(const std::string& key);

  bool operator==(const ConvProblem& other) const = default;
};

/// Hash over every key field — the binding cache's map hasher.
struct ConvProblemHash {
  size_t operator()(const ConvProblem& p) const;
};

}  // namespace roadfusion::tune
