#include "vision/filters.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"

namespace roadfusion::vision {
namespace {

/// Extracts (planes, height, width) from the trailing-2-D convention.
void plane_geometry(const Tensor& t, int64_t& planes, int64_t& h, int64_t& w) {
  const int rank = t.shape().rank();
  ROADFUSION_CHECK(rank >= 2 && rank <= 4,
                   "plane filter expects rank 2..4, got " << t.shape().str());
  h = t.shape().dim(rank - 2);
  w = t.shape().dim(rank - 1);
  planes = t.numel() / (h * w);
}

}  // namespace

int64_t gaussian_radius(double sigma) {
  ROADFUSION_CHECK(sigma > 0.0, "gaussian_kernel: sigma must be positive");
  return static_cast<int64_t>(std::ceil(3.0 * sigma));
}

void gaussian_kernel(double sigma, float* taps) {
  const int radius = static_cast<int>(gaussian_radius(sigma));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-0.5 * (i * i) / (sigma * sigma));
    taps[i + radius] = static_cast<float>(v);
    sum += v;
  }
  for (int i = 0; i <= 2 * radius; ++i) {
    taps[i] = static_cast<float>(taps[i] / sum);
  }
}

std::vector<float> gaussian_kernel(double sigma) {
  std::vector<float> kernel(
      static_cast<size_t>(2 * gaussian_radius(sigma) + 1));
  gaussian_kernel(sigma, kernel.data());
  return kernel;
}

namespace {

/// acc[x] += tap * in[x] over a row, the tap's products rounded to float.
void add_tap(const float* in, float tap, int64_t w, double* acc) {
  for (int64_t x = 0; x < w; ++x) {
    acc[x] += tap * in[x];
  }
}

/// `acc + v`, keeping a NaN `acc` as it is: the first operand's NaN, as
/// scalar x86 code returns for an add of two NaNs.
double accumulate(double acc, double v) {
  return std::isunordered(acc, acc) ? acc : acc + v;
}

/// Rounds a row of sums to float; true when one of them is NaN.
bool store_row(const double* acc, int64_t w, float* out) {
  uint32_t nan = 0;
  for (int64_t x = 0; x < w; ++x) {
    out[x] = static_cast<float>(acc[x]);
    nan |= static_cast<uint32_t>(std::isunordered(out[x], out[x]));
  }
  return nan != 0;
}

}  // namespace

// A sum that ends in NaN went through NaN from its first NaN add on, and
// which NaN it holds (sign and payload are part of the bits) depends on
// the operand order of the later adds, which the vectorized add_tap loop
// leaves to the compiler. So the passes add plainly and sum each NaN pixel
// again with accumulate. Every other pixel never held a NaN, where the two
// adds agree.

void horizontal_blur_row(const float* padded, int64_t w, const float* taps,
                         int64_t radius, double* acc, float* out) {
  std::fill(acc, acc + w, 0.0);
  for (int64_t k = 0; k <= 2 * radius; ++k) {
    add_tap(padded + k, taps[k], w, acc);
  }
  if (!store_row(acc, w, out)) {
    return;
  }
  for (int64_t x = 0; x < w; ++x) {
    if (std::isnan(out[x])) {
      double sum = 0.0;
      for (int64_t k = 0; k <= 2 * radius; ++k) {
        sum = accumulate(sum, taps[k] * padded[x + k]);
      }
      out[x] = static_cast<float>(sum);
    }
  }
}

void vertical_blur_row(const float* plane, int64_t h, int64_t w, int64_t y,
                       const float* taps, int64_t radius, double* acc,
                       float* out) {
  const auto row = [&](int64_t k) {
    return plane + std::clamp<int64_t>(y + k, 0, h - 1) * w;
  };
  std::fill(acc, acc + w, 0.0);
  for (int64_t k = -radius; k <= radius; ++k) {
    add_tap(row(k), taps[k + radius], w, acc);
  }
  if (!store_row(acc, w, out)) {
    return;
  }
  for (int64_t x = 0; x < w; ++x) {
    if (std::isnan(out[x])) {
      double sum = 0.0;
      for (int64_t k = -radius; k <= radius; ++k) {
        sum = accumulate(sum, taps[k + radius] * row(k)[x]);
      }
      out[x] = static_cast<float>(sum);
    }
  }
}

Tensor gaussian_blur(const Tensor& input, double sigma) {
  int64_t planes = 0;
  int64_t h = 0;
  int64_t w = 0;
  plane_geometry(input, planes, h, w);
  const std::vector<float> taps = gaussian_kernel(sigma);
  const int64_t radius = static_cast<int64_t>(taps.size() / 2);
  std::vector<double> acc(static_cast<size_t>(w));
  std::vector<float> padded(static_cast<size_t>(w + 2 * radius));
  std::vector<float> mid(static_cast<size_t>(h * w));
  Tensor output = Tensor::uninitialized(input.shape());
  for (int64_t p = 0; p < planes; ++p) {
    const float* src = input.raw() + p * h * w;
    for (int64_t y = 0; y < h; ++y) {
      const float* row = src + y * w;
      std::fill(padded.begin(), padded.begin() + radius, row[0]);
      std::copy(row, row + w, padded.begin() + radius);
      std::fill(padded.begin() + radius + w, padded.end(), row[w - 1]);
      horizontal_blur_row(padded.data(), w, taps.data(), radius, acc.data(),
                          mid.data() + y * w);
    }
    for (int64_t y = 0; y < h; ++y) {
      vertical_blur_row(mid.data(), h, w, y, taps.data(), radius, acc.data(),
                        output.raw() + p * h * w + y * w);
    }
  }
  return output;
}

Tensor sobel_magnitude(const Tensor& input) {
  int64_t planes = 0;
  int64_t h = 0;
  int64_t w = 0;
  plane_geometry(input, planes, h, w);
  // 1/8-scaled Sobel kernels, matching autograd::sobel_edge.
  static constexpr float kx[9] = {-0.125f, 0.0f, 0.125f, -0.25f, 0.0f,
                                  0.25f,   -0.125f, 0.0f, 0.125f};
  static constexpr float ky[9] = {-0.125f, -0.25f, -0.125f, 0.0f, 0.0f,
                                  0.0f,    0.125f, 0.25f,   0.125f};
  Tensor output(input.shape());
  const float* in = input.raw();
  float* out = output.raw();
  // Replicate (clamp-to-edge) borders: a constant field then yields a zero
  // sketch everywhere and a global luminance offset cancels exactly —
  // properties the Feature Disparity metric depends on.
  for (int64_t p = 0; p < planes; ++p) {
    const float* src = in + p * h * w;
    float* dst = out + p * h * w;
    for (int64_t y = 0; y < h; ++y) {
      for (int64_t x = 0; x < w; ++x) {
        double gx = 0.0;
        double gy = 0.0;
        for (int64_t dy = -1; dy <= 1; ++dy) {
          const int64_t yy = std::clamp<int64_t>(y + dy, 0, h - 1);
          for (int64_t dx = -1; dx <= 1; ++dx) {
            const int64_t xx = std::clamp<int64_t>(x + dx, 0, w - 1);
            const float v = src[yy * w + xx];
            gx += kx[(dy + 1) * 3 + (dx + 1)] * v;
            gy += ky[(dy + 1) * 3 + (dx + 1)] * v;
          }
        }
        dst[y * w + x] = static_cast<float>(std::sqrt(gx * gx + gy * gy));
      }
    }
  }
  return output;
}

Tensor normalize_planes(const Tensor& input) {
  int64_t planes = 0;
  int64_t h = 0;
  int64_t w = 0;
  plane_geometry(input, planes, h, w);
  Tensor output(input.shape());
  const float* in = input.raw();
  float* out = output.raw();
  for (int64_t p = 0; p < planes; ++p) {
    const float* src = in + p * h * w;
    float* dst = out + p * h * w;
    float lo = src[0];
    float hi = src[0];
    for (int64_t i = 0; i < h * w; ++i) {
      lo = std::min(lo, src[i]);
      hi = std::max(hi, src[i]);
    }
    const float span = hi - lo;
    if (span < 1e-12f) {
      std::fill(dst, dst + h * w, 0.0f);
      continue;
    }
    for (int64_t i = 0; i < h * w; ++i) {
      dst[i] = (src[i] - lo) / span;
    }
  }
  return output;
}

Tensor downsample(const Tensor& input, int64_t factor) {
  ROADFUSION_CHECK(factor >= 1, "downsample: factor must be >= 1");
  if (factor == 1) {
    return input;
  }
  int64_t planes = 0;
  int64_t h = 0;
  int64_t w = 0;
  plane_geometry(input, planes, h, w);
  ROADFUSION_CHECK(h % factor == 0 && w % factor == 0,
                   "downsample: " << h << "x" << w << " not divisible by "
                                  << factor);
  const int64_t oh = h / factor;
  const int64_t ow = w / factor;
  tensor::Shape out_shape;
  switch (input.shape().rank()) {
    case 2:
      out_shape = tensor::Shape::mat(oh, ow);
      break;
    case 3:
      out_shape = tensor::Shape::chw(input.shape().dim(0), oh, ow);
      break;
    default:
      out_shape = tensor::Shape::nchw(input.shape().dim(0),
                                      input.shape().dim(1), oh, ow);
      break;
  }
  Tensor output(out_shape);
  const float* in = input.raw();
  float* out = output.raw();
  const float inv = 1.0f / static_cast<float>(factor * factor);
  for (int64_t p = 0; p < planes; ++p) {
    const float* src = in + p * h * w;
    float* dst = out + p * oh * ow;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x) {
        double acc = 0.0;
        for (int64_t dy = 0; dy < factor; ++dy) {
          for (int64_t dx = 0; dx < factor; ++dx) {
            acc += src[(y * factor + dy) * w + (x * factor + dx)];
          }
        }
        dst[y * ow + x] = static_cast<float>(acc) * inv;
      }
    }
  }
  return output;
}

}  // namespace roadfusion::vision
