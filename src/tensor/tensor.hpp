// Tensor: the dense float32 array type underlying all of RoadFusion.
//
// Value-semantic, row-major, NCHW-convention container. Copies are deep;
// moves are cheap. All numeric heavy lifting lives in ops.hpp / the
// autograd kernels — Tensor itself only owns storage and indexing.
//
// Storage is workspace-aware: when the calling thread has an ambient
// Workspace installed (WorkspaceScope, see workspace.hpp), allocations
// draw from that pool and return to it on destruction — the mechanism
// behind allocation-free steady-state inference. Without a scope the
// behaviour is the classic heap allocation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/shape.hpp"

namespace roadfusion::tensor {

/// Dense float tensor of rank <= 4.
class Tensor {
 public:
  /// Empty scalar-shaped tensor holding one zero element.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(const Shape& shape);

  /// Tensor of the given shape with every element set to `fill`.
  Tensor(const Shape& shape, float fill);

  /// Tensor copying the given values; `values.size()` must equal
  /// `shape.numel()`.
  Tensor(const Shape& shape, std::vector<float> values);

  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  /// Named constructors.
  static Tensor zeros(const Shape& shape);
  static Tensor ones(const Shape& shape);
  static Tensor full(const Shape& shape, float value);
  static Tensor scalar(float value);

  /// Tensor whose elements are NOT initialized — for buffers every
  /// element of which is about to be overwritten (im2col outputs, GEMM
  /// destinations). Skips the zero-fill memset of Tensor(shape).
  static Tensor uninitialized(const Shape& shape);

  /// I.i.d. uniform samples in [lo, hi).
  static Tensor uniform(const Shape& shape, Rng& rng, float lo = 0.0f,
                        float hi = 1.0f);

  /// I.i.d. normal samples.
  static Tensor normal(const Shape& shape, Rng& rng, float mean = 0.0f,
                       float stddev = 1.0f);

  /// Evenly spaced values 0, 1, ..., numel-1 (testing aid).
  static Tensor arange(const Shape& shape);

  const Shape& shape() const { return shape_; }
  int64_t numel() const { return static_cast<int64_t>(size_); }

  /// Flat element access.
  float& at(int64_t i);
  float at(int64_t i) const;

  /// 4-D element access; shape must be rank 4.
  float& at4(int64_t n, int64_t c, int64_t h, int64_t w);
  float at4(int64_t n, int64_t c, int64_t h, int64_t w) const;

  /// Raw storage views.
  std::span<float> data() { return {data_, size_}; }
  std::span<const float> data() const { return {data_, size_}; }
  float* raw() { return data_; }
  const float* raw() const { return data_; }

  /// Reinterprets the storage with a new shape of identical numel: a
  /// copy of an lvalue, while an rvalue hands over its storage.
  Tensor reshaped(const Shape& shape) const&;
  Tensor reshaped(const Shape& shape) &&;

  /// Sets every element to `value`.
  void fill(float value);

  /// True when shapes match and all elements are within `tol`.
  bool allclose(const Tensor& other, float tol = 1e-5f) const;

  /// Reductions.
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;

  /// Compact debug representation (shape + first few values).
  std::string str() const;

 private:
  struct Uninit {};
  Tensor(const Shape& shape, Uninit);

  /// Allocates `size_` floats for `shape_` (pooled when a WorkspaceScope
  /// is active on this thread, heap otherwise).
  void allocate();
  void deallocate() noexcept;

  Shape shape_;
  float* data_ = nullptr;
  size_t size_ = 0;
  bool pooled_ = false;
};

}  // namespace roadfusion::tensor
