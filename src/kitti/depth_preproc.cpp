#include "kitti/depth_preproc.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/check.hpp"
#include "vision/filters.hpp"

namespace roadfusion::kitti {
namespace {

void check_depth(const Tensor& t) {
  ROADFUSION_CHECK(t.shape().rank() == 3 && t.shape().dim(0) == 1,
                   "depth image must be (1, H, W), got " << t.shape().str());
}

void check_range_bounds(const DepthPreprocConfig& config) {
  ROADFUSION_CHECK(config.max_range > config.min_range && config.min_range > 0,
                   "depth preproc: bad range bounds");
}

int64_t blur_radius(const DepthPreprocConfig& config) {
  return config.smoothing_sigma > 0.0
             ? vision::gaussian_radius(config.smoothing_sigma)
             : 0;
}

/// The one scratch allocation of a front-end call (DESIGN.md "Depth front
/// end"): the (h + 2) x (w + 2) range plane the fill runs on, with a +0.0
/// border ring, and the h x w plane the blur's horizontal pass writes;
/// per pixel, room in the frontier list and its computed values; two
/// bit planes (one bit per padded pixel, 64 to a word); row-long buffers
/// (double sums, the blur's padded row and taps); and a flag per row.
class Scratch {
 public:
  Scratch(int64_t h, int64_t w, int64_t radius)
      : h_(h), w_(w), words_((w + 2 + 63) / 64) {
    // Frontier entries are int32 indices into the padded planes.
    ROADFUSION_CHECK((h + 2) * 64 * words_ < (int64_t{1} << 31),
                     "depth preproc: " << h << "x" << w << " plane too large");
    const int64_t padded = (h + 2) * (w + 2);
    const int64_t pixels = h * w;
    const int64_t bit_words = 2 * (h + 2) * words_;
    const int64_t floats = padded + 2 * pixels + 2 * pixels /* frontier */ +
                           (w + 2 * radius) + (2 * radius + 1);
    // 8-byte slots first: new[] storage is aligned for them, and for the
    // 4-byte slots after them.
    storage_.reset(
        new std::byte[static_cast<size_t>(w + bit_words) * 8 +
                      static_cast<size_t>(floats) * 4 +
                      static_cast<size_t>(h)]);
    acc_ = reinterpret_cast<double*>(storage_.get());
    valid_ = reinterpret_cast<uint64_t*>(acc_ + w);
    near_ = valid_ + (h + 2) * words_;
    range_ = reinterpret_cast<float*>(near_ + (h + 2) * words_);
    mid_ = range_ + padded;
    values_ = mid_ + pixels;
    frontier_ = reinterpret_cast<int32_t*>(values_ + pixels);
    frontier_bits_ = frontier_ + pixels;
    blur_row_ = reinterpret_cast<float*>(frontier_bits_ + pixels);
    taps_ = blur_row_ + w + 2 * radius;
    row_flags_ = reinterpret_cast<uint8_t*>(taps_ + 2 * radius + 1);
  }

  int64_t h() const { return h_; }
  int64_t w() const { return w_; }
  int64_t words() const { return words_; }
  /// Row y (-1 .. h) of the range plane, at column 0.
  float* row(int64_t y) { return range_ + (y + 1) * (w_ + 2) + 1; }
  float* range() { return range_; }
  float* mid() { return mid_; }
  float* values() { return values_; }
  /// Frontier pixels, as range-plane indices and as valid-plane bits.
  int32_t* frontier() { return frontier_; }
  int32_t* frontier_bits() { return frontier_bits_; }
  /// Row y (-1 .. h) of a bit plane; bit j of the row is column j - 1.
  uint64_t* valid(int64_t y) { return valid_ + (y + 1) * words_; }
  uint64_t* near(int64_t y) { return near_ + (y + 1) * words_; }
  uint8_t* row_flags() { return row_flags_; }
  double* acc() { return acc_; }
  float* blur_row() { return blur_row_; }
  float* taps() { return taps_; }

 private:
  int64_t h_;
  int64_t w_;
  int64_t words_;
  std::unique_ptr<std::byte[]> storage_;
  double* acc_ = nullptr;
  uint64_t* valid_ = nullptr;
  uint64_t* near_ = nullptr;
  float* range_ = nullptr;
  float* mid_ = nullptr;
  float* values_ = nullptr;
  int32_t* frontier_ = nullptr;
  int32_t* frontier_bits_ = nullptr;
  float* blur_row_ = nullptr;
  float* taps_ = nullptr;
  uint8_t* row_flags_ = nullptr;
};

/// The values the `size` frontier pixels (range-plane indices) fill with:
/// each the mean of its valid (non-zero) taps, summed in double in the
/// reference (dy, dx) order. A zero tap adds +0.0 to a sum that starts at
/// +0.0 and counts 0, exactly like a skipped one, so the zero border
/// stands in for bounds checks.
void fill_values(const float* range, const int32_t* frontier, int64_t size,
                 int64_t stride, float* values) {
  for (int64_t k = 0; k < size; ++k) {
    double acc = 0.0;
    int count = 0;
    const float* center = range + frontier[k];
    for (const float* row = center - stride; row <= center + stride;
         row += stride) {
      for (int64_t dx = -1; dx <= 1; ++dx) {
        acc += row[dx];
        count += row[dx] != 0.0f;
      }
    }
    values[k] = static_cast<float>(acc / count);
  }
}

/// Runs the fill iterations on the h x w plane `sparse` (row-major),
/// leaving the result in the range plane.
///
/// Bit-identical to the reference loop, which recomputes every empty
/// (+-0.0) pixel of every iteration from the previous iteration's plane
/// and stops after an iteration that left an empty pixel without a valid
/// (non-zero) neighbour nowhere. A bit plane marks the valid pixels, and
/// its 3x3 dilation the pixels with a valid neighbour — a few word
/// operations per row. An iteration computes exactly the frontier, the
/// empty pixels in the dilation (every other empty pixel keeps its
/// value), before it writes any of them. An empty frontier makes every
/// later iteration the identity, so the loop stops there.
void densify(const float* sparse, const DepthPreprocConfig& config,
             Scratch& s) {
  const int64_t h = s.h();
  const int64_t w = s.w();
  const int64_t words = s.words();
  const int64_t stride = w + 2;
  float* range = s.range();
  std::fill(range, range + stride, 0.0f);
  std::fill(s.row(h) - 1, s.row(h) + w + 1, 0.0f);
  std::fill(s.valid(-1), s.valid(h + 1), uint64_t{0});
  for (int64_t y = 0; y < h; ++y) {
    float* row = s.row(y);
    row[-1] = 0.0f;
    row[w] = 0.0f;
    std::memcpy(row, sparse + y * w, static_cast<size_t>(w) * sizeof(float));
    uint64_t* valid = s.valid(y);
    for (int64_t k = 0; k < words; ++k) {
      // Bit b of word k is column 64 k + b - 1.
      uint64_t bits = 0;
      const int64_t end = std::min(w, 64 * k + 63);
      for (int64_t x = std::max<int64_t>(0, 64 * k - 1); x < end; ++x) {
        bits |= uint64_t{row[x] != 0.0f} << (x + 1 - 64 * k);
      }
      valid[k] = bits;
    }
  }
  // Columns 0 .. w - 1 of a bit-plane row (bits 1 .. w).
  const auto interior = [&](int64_t k) {
    const int64_t lo = std::clamp<int64_t>(1 - 64 * k, 0, 64);
    const int64_t hi = std::clamp<int64_t>(w + 1 - 64 * k, 0, 64);
    const uint64_t below_hi = hi == 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
    const uint64_t below_lo = lo == 64 ? ~uint64_t{0} : (uint64_t{1} << lo) - 1;
    return below_hi & ~below_lo;
  };
  int32_t* frontier = s.frontier();
  int32_t* frontier_bits = s.frontier_bits();
  uint64_t* valid_plane = s.valid(-1);
  float* values = s.values();
  for (int iter = 0; iter < config.fill_iterations; ++iter) {
    // Horizontal dilation of each row's valid bits.
    for (int64_t y = -1; y <= h; ++y) {
      const uint64_t* v = s.valid(y);
      uint64_t* d = s.near(y);
      for (int64_t k = 0; k < words; ++k) {
        const uint64_t left = k > 0 ? v[k - 1] >> 63 : 0;
        const uint64_t right = k + 1 < words ? v[k + 1] << 63 : 0;
        d[k] = v[k] | v[k] << 1 | left | v[k] >> 1 | right;
      }
    }
    int64_t size = 0;
    bool any_stuck = false;
    for (int64_t y = 0; y < h; ++y) {
      const uint64_t* valid = s.valid(y);
      for (int64_t k = 0; k < words; ++k) {
        const uint64_t near = s.near(y - 1)[k] | s.near(y)[k] | s.near(y + 1)[k];
        const uint64_t inside = interior(k);
        any_stuck = any_stuck || (inside & ~near) != 0;
        for (uint64_t m = near & ~valid[k] & inside; m != 0; m &= m - 1) {
          const int64_t bit = 64 * k + std::countr_zero(m);  // column + 1
          frontier[size] = static_cast<int32_t>((y + 1) * stride + bit);
          frontier_bits[size] = static_cast<int32_t>((y + 1) * 64 * words + bit);
          ++size;
        }
      }
    }
    if (size == 0) {
      break;
    }
    fill_values(range, frontier, size, stride, values);
    for (int64_t k = 0; k < size; ++k) {
      range[frontier[k]] = values[k];
      const int32_t bit = frontier_bits[k];
      valid_plane[bit / 64] |= uint64_t{values[k] != 0.0f} << (bit % 64);
    }
    if (!any_stuck) {
      break;
    }
  }
}

/// Normalized inverse depth of `n` metric ranges: 1 / clamp(range, lo,
/// hi) mapped from [inv_max, inv_max + span] to [0, 1], and +0.0 for
/// empty (<= 0) pixels. Computed for every pixel and masked after, without
/// a branch, so that it vectorizes. Out of line: inlined where
/// inv_max = 1 / hi is visible, the compiler turns 1 / clamp(...) into a
/// branch around the division that reuses inv_max, and then cannot
/// vectorize the loop.
[[gnu::noinline]] void inverse_depth(const float* range, int64_t n, double lo,
                                     double hi, double inv_max, double span,
                                     float* out) {
  for (int64_t i = 0; i < n; ++i) {
    const double clamped = std::clamp(static_cast<double>(range[i]), lo, hi);
    const float value = static_cast<float>((1.0 / clamped - inv_max) / span);
    const uint32_t keep = 0u - static_cast<uint32_t>(!(range[i] <= 0.0f));
    out[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(value) & keep);
  }
}

void inverse_row(const float* range, int64_t n,
                 const DepthPreprocConfig& config, float* out) {
  const double inv_min = 1.0 / config.min_range;
  const double inv_max = 1.0 / config.max_range;
  inverse_depth(range, n, config.min_range, config.max_range, inv_max,
                inv_min - inv_max, out);
}

/// The whole front end on the h x w plane `sparse` into `out` (h x w):
/// densify, then each row's inverse depth straight into the blur's
/// replicate-padded row, the horizontal pass into the free plane and the
/// vertical pass into `out`. A dense row of +-0.0 has inverse depth +0.0, and so does its
/// horizontal blur and the vertical blur of a window of such rows
/// (+0.0 products add to +0.0): those rows are written, not computed.
void front_end(const float* sparse, int64_t h, int64_t w,
               const DepthPreprocConfig& config, float* out) {
  const int64_t radius = blur_radius(config);
  Scratch s(h, w, radius);
  densify(sparse, config, s);
  uint8_t* live = s.row_flags();
  for (int64_t y = 0; y < h; ++y) {
    const float* row = s.row(y);
    uint32_t any = 0;
    for (int64_t x = 0; x < w; ++x) {
      any |= static_cast<uint32_t>(row[x] != 0.0f);
    }
    live[y] = static_cast<uint8_t>(any);
  }
  float* mid = radius == 0 ? out : s.mid();
  float* padded = s.blur_row();
  if (radius > 0) {
    vision::gaussian_kernel(config.smoothing_sigma, s.taps());
  }
  for (int64_t y = 0; y < h; ++y) {
    float* row = mid + y * w;
    if (live[y] == 0) {
      std::fill(row, row + w, 0.0f);
    } else if (radius == 0) {
      inverse_row(s.row(y), w, config, row);
    } else {
      inverse_row(s.row(y), w, config, padded + radius);
      std::fill(padded, padded + radius, padded[radius]);
      std::fill(padded + radius + w, padded + w + 2 * radius,
                padded[radius + w - 1]);
      vision::horizontal_blur_row(padded, w, s.taps(), radius, s.acc(), row);
    }
  }
  if (radius == 0) {
    return;
  }
  for (int64_t y = 0; y < h; ++y) {
    bool window_live = false;
    for (int64_t k = std::max<int64_t>(0, y - radius);
         k <= std::min(h - 1, y + radius); ++k) {
      window_live = window_live || live[k] != 0;
    }
    if (window_live) {
      vision::vertical_blur_row(mid, h, w, y, s.taps(), radius, s.acc(),
                                out + y * w);
    } else {
      std::fill(out + y * w, out + (y + 1) * w, 0.0f);
    }
  }
}

}  // namespace

Tensor densify_range(const Tensor& sparse_range,
                     const DepthPreprocConfig& config) {
  check_depth(sparse_range);
  const int64_t h = sparse_range.shape().dim(1);
  const int64_t w = sparse_range.shape().dim(2);
  Scratch s(h, w, 0);
  densify(sparse_range.raw(), config, s);
  Tensor out = Tensor::uninitialized(sparse_range.shape());
  for (int64_t y = 0; y < h; ++y) {
    std::memcpy(out.raw() + y * w, s.row(y),
                static_cast<size_t>(w) * sizeof(float));
  }
  return out;
}

Tensor range_to_inverse_depth(const Tensor& dense_range,
                              const DepthPreprocConfig& config) {
  check_depth(dense_range);
  check_range_bounds(config);
  Tensor out = Tensor::uninitialized(dense_range.shape());
  inverse_row(dense_range.raw(), out.numel(), config, out.raw());
  return out;
}

Tensor preprocess_depth(const Tensor& sparse_range,
                        const DepthPreprocConfig& config) {
  check_depth(sparse_range);
  check_range_bounds(config);
  Tensor out = Tensor::uninitialized(sparse_range.shape());
  front_end(sparse_range.raw(), sparse_range.shape().dim(1),
            sparse_range.shape().dim(2), config, out.raw());
  return out;
}

Tensor preprocess_depth_tiled(const Tensor& sparse_range,
                              const Tensor& /*previous_sparse*/,
                              const Tensor& /*previous_output*/,
                              const DepthPreprocConfig& config,
                              TiledPreprocStats* stats) {
  if (stats != nullptr) {
    *stats = {1, 0};
  }
  return preprocess_depth(sparse_range, config);
}

}  // namespace roadfusion::kitti
