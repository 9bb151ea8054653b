#include "autograd/kernels.hpp"

#include <algorithm>
#include <atomic>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "tensor/workspace.hpp"

namespace roadfusion::autograd::kernels {
namespace {

namespace t = roadfusion::tensor;

std::atomic<uint64_t> im2col_calls{0};

// Surfaces the ad-hoc im2col counter through the metrics registry without
// moving its storage: a callback gauge sampled at render time. Registered
// once at static-init (gauge because reset_im2col_call_count can lower it).
[[maybe_unused]] const bool im2col_gauge_registered = [] {
  obs::MetricsRegistry::global().gauge_callback(
      "roadfusion_autograd_im2col_calls",
      [] { return static_cast<double>(
               im2col_calls.load(std::memory_order_relaxed)); },
      "Lifetime im2col invocations");
  return true;
}();

// Workspace arena gauges (DESIGN.md §11). The tensor library cannot
// depend on obs, so the bridge lives here: sampled over every live
// Workspace at render time.
[[maybe_unused]] const bool arena_gauges_registered = [] {
  obs::MetricsRegistry::global().gauge_callback(
      "roadfusion_arena_reserved_bytes",
      [] { return static_cast<double>(
               t::Workspace::global_stats().reserved_bytes); },
      "Total bytes reserved across live workspace arenas");
  obs::MetricsRegistry::global().gauge_callback(
      "roadfusion_arena_peak_bytes",
      [] { return static_cast<double>(
               t::Workspace::global_stats().peak_bytes); },
      "Summed high-water marks of live workspace arenas");
  return true;
}();

}  // namespace

uint64_t im2col_call_count() {
  return im2col_calls.load(std::memory_order_relaxed);
}

void reset_im2col_call_count() {
  im2col_calls.store(0, std::memory_order_relaxed);
}

Tensor im2col(const float* image, int64_t channels, int64_t height,
              int64_t width, const ConvGeometry& geom) {
  im2col_calls.fetch_add(1, std::memory_order_relaxed);
  const int64_t k = geom.kernel;
  const int64_t out_h = geom.out_extent(height);
  const int64_t out_w = geom.out_extent(width);
  ROADFUSION_CHECK(out_h > 0 && out_w > 0,
                   "im2col: non-positive output extent for input " << height
                                                                   << "x"
                                                                   << width);
  // Every element below is written (zero padding included), so the
  // zero-fill of Tensor(shape) would be pure overhead on the hot path.
  Tensor columns = Tensor::uninitialized(Shape::mat(channels * k * k,
                                                    out_h * out_w));
  float* col = columns.raw();
  for (int64_t c = 0; c < channels; ++c) {
    const float* plane = image + c * height * width;
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t kx = 0; kx < k; ++kx) {
        float* row = col + ((c * k + ky) * k + kx) * out_h * out_w;
        for (int64_t oy = 0; oy < out_h; ++oy) {
          const int64_t iy = oy * geom.stride + ky - geom.padding;
          float* row_out = row + oy * out_w;
          if (iy < 0 || iy >= height) {
            std::fill(row_out, row_out + out_w, 0.0f);
            continue;
          }
          const float* in_row = plane + iy * width;
          for (int64_t ox = 0; ox < out_w; ++ox) {
            const int64_t ix = ox * geom.stride + kx - geom.padding;
            row_out[ox] = (ix >= 0 && ix < width) ? in_row[ix] : 0.0f;
          }
        }
      }
    }
  }
  return columns;
}

void col2im_accumulate(const Tensor& columns, int64_t channels, int64_t height,
                       int64_t width, const ConvGeometry& geom, float* image) {
  const int64_t k = geom.kernel;
  const int64_t out_h = geom.out_extent(height);
  const int64_t out_w = geom.out_extent(width);
  ROADFUSION_CHECK(columns.shape() == Shape::mat(channels * k * k,
                                                 out_h * out_w),
                   "col2im: column shape " << columns.shape().str()
                                           << " inconsistent with geometry");
  const float* col = columns.raw();
  for (int64_t c = 0; c < channels; ++c) {
    float* plane = image + c * height * width;
    for (int64_t ky = 0; ky < k; ++ky) {
      for (int64_t kx = 0; kx < k; ++kx) {
        const float* row = col + ((c * k + ky) * k + kx) * out_h * out_w;
        for (int64_t oy = 0; oy < out_h; ++oy) {
          const int64_t iy = oy * geom.stride + ky - geom.padding;
          if (iy < 0 || iy >= height) {
            continue;
          }
          const float* row_in = row + oy * out_w;
          float* out_row = plane + iy * width;
          for (int64_t ox = 0; ox < out_w; ++ox) {
            const int64_t ix = ox * geom.stride + kx - geom.padding;
            if (ix >= 0 && ix < width) {
              out_row[ix] += row_in[ox];
            }
          }
        }
      }
    }
  }
}

Tensor depthwise3x3(const Tensor& input, const float kernel[9]) {
  ROADFUSION_CHECK(input.shape().rank() == 4,
                   "depthwise3x3 expects NCHW, got " << input.shape().str());
  const int64_t n = input.shape().batch();
  const int64_t c = input.shape().channels();
  const int64_t h = input.shape().height();
  const int64_t w = input.shape().width();
  Tensor output(input.shape());
  const float* in = input.raw();
  float* out = output.raw();
  for (int64_t plane = 0; plane < n * c; ++plane) {
    const float* src = in + plane * h * w;
    float* dst = out + plane * h * w;
    for (int64_t y = 0; y < h; ++y) {
      for (int64_t x = 0; x < w; ++x) {
        float acc = 0.0f;
        for (int64_t ky = 0; ky < 3; ++ky) {
          const int64_t iy = y + ky - 1;
          if (iy < 0 || iy >= h) {
            continue;
          }
          for (int64_t kx = 0; kx < 3; ++kx) {
            const int64_t ix = x + kx - 1;
            if (ix < 0 || ix >= w) {
              continue;
            }
            acc += kernel[ky * 3 + kx] * src[iy * w + ix];
          }
        }
        dst[y * w + x] = acc;
      }
    }
  }
  return output;
}

Tensor depthwise3x3_adjoint(const Tensor& grad_output, const float kernel[9]) {
  // Correlation with the 180-degree rotated kernel is the adjoint of
  // correlation with the kernel under zero padding.
  float flipped[9];
  for (int i = 0; i < 9; ++i) {
    flipped[i] = kernel[8 - i];
  }
  return depthwise3x3(grad_output, flipped);
}

Tensor max_pool2d(const Tensor& input, int64_t kernel, int64_t stride,
                  std::vector<int64_t>& argmax) {
  ROADFUSION_CHECK(input.shape().rank() == 4,
                   "max_pool2d expects NCHW, got " << input.shape().str());
  ROADFUSION_CHECK(kernel > 0 && stride > 0, "bad pool geometry");
  const int64_t n = input.shape().batch();
  const int64_t c = input.shape().channels();
  const int64_t h = input.shape().height();
  const int64_t w = input.shape().width();
  const int64_t out_h = (h - kernel) / stride + 1;
  const int64_t out_w = (w - kernel) / stride + 1;
  ROADFUSION_CHECK(out_h > 0 && out_w > 0,
                   "max_pool2d: input " << h << "x" << w
                                        << " too small for kernel " << kernel);
  Tensor output(Shape::nchw(n, c, out_h, out_w));
  argmax.assign(static_cast<size_t>(output.numel()), 0);
  const float* in = input.raw();
  float* out = output.raw();
  int64_t out_index = 0;
  for (int64_t plane = 0; plane < n * c; ++plane) {
    const float* src = in + plane * h * w;
    for (int64_t oy = 0; oy < out_h; ++oy) {
      for (int64_t ox = 0; ox < out_w; ++ox) {
        const int64_t y0 = oy * stride;
        const int64_t x0 = ox * stride;
        float best = src[y0 * w + x0];
        int64_t best_index = y0 * w + x0;
        for (int64_t ky = 0; ky < kernel; ++ky) {
          for (int64_t kx = 0; kx < kernel; ++kx) {
            const int64_t index = (y0 + ky) * w + (x0 + kx);
            if (src[index] > best) {
              best = src[index];
              best_index = index;
            }
          }
        }
        out[out_index] = best;
        argmax[static_cast<size_t>(out_index)] = plane * h * w + best_index;
        ++out_index;
      }
    }
  }
  return output;
}

Tensor max_pool2d_backward(const Tensor& grad_output, const Shape& input_shape,
                           const std::vector<int64_t>& argmax) {
  ROADFUSION_CHECK(static_cast<int64_t>(argmax.size()) == grad_output.numel(),
                   "argmax size mismatch in max_pool2d_backward");
  Tensor grad_input(input_shape);
  float* gin = grad_input.raw();
  const float* gout = grad_output.raw();
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    gin[argmax[static_cast<size_t>(i)]] += gout[i];
  }
  return grad_input;
}

}  // namespace roadfusion::autograd::kernels
