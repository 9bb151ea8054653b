#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "tensor/workspace.hpp"

namespace roadfusion::tensor {

void Tensor::allocate() {
  size_ = static_cast<size_t>(shape_.numel());
  if (size_ == 0) {
    data_ = nullptr;
    pooled_ = false;
    return;
  }
  Workspace* pool = Workspace::current();
  if (pool != nullptr) {
    data_ = pool->acquire(size_);
    pooled_ = true;
  } else {
    data_ = new float[size_];
    pooled_ = false;
  }
}

void Tensor::deallocate() noexcept {
  if (data_ == nullptr) {
    return;
  }
  if (pooled_) {
    Workspace::release(data_);
  } else {
    delete[] data_;
  }
  data_ = nullptr;
  size_ = 0;
  pooled_ = false;
}

Tensor::Tensor() : shape_(Shape::scalar()) {
  allocate();
  data_[0] = 0.0f;
}

Tensor::Tensor(const Shape& shape) : shape_(shape) {
  allocate();
  std::memset(data_, 0, size_ * sizeof(float));
}

Tensor::Tensor(const Shape& shape, float fill) : shape_(shape) {
  allocate();
  std::fill(data_, data_ + size_, fill);
}

Tensor::Tensor(const Shape& shape, std::vector<float> values)
    : shape_(shape) {
  ROADFUSION_CHECK(static_cast<int64_t>(values.size()) == shape.numel(),
                   "value count " << values.size() << " != numel of "
                                  << shape.str());
  allocate();
  std::memcpy(data_, values.data(), size_ * sizeof(float));
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  allocate();
  std::memcpy(data_, other.data_, size_ * sizeof(float));
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(other.shape_),
      data_(other.data_),
      size_(other.size_),
      pooled_(other.pooled_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.pooled_ = false;
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) {
    return *this;
  }
  if (size_ == static_cast<size_t>(other.shape_.numel()) && data_ != nullptr) {
    // Same element count: overwrite in place, keeping this tensor's
    // (possibly pooled) storage.
    shape_ = other.shape_;
    std::memcpy(data_, other.data_, size_ * sizeof(float));
    return *this;
  }
  deallocate();
  shape_ = other.shape_;
  allocate();
  std::memcpy(data_, other.data_, size_ * sizeof(float));
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  deallocate();
  shape_ = other.shape_;
  data_ = other.data_;
  size_ = other.size_;
  pooled_ = other.pooled_;
  other.data_ = nullptr;
  other.size_ = 0;
  other.pooled_ = false;
  return *this;
}

Tensor::~Tensor() { deallocate(); }

Tensor Tensor::zeros(const Shape& shape) { return Tensor(shape); }
Tensor Tensor::ones(const Shape& shape) { return Tensor(shape, 1.0f); }
Tensor Tensor::full(const Shape& shape, float value) {
  return Tensor(shape, value);
}
Tensor Tensor::scalar(float value) {
  Tensor t;
  t.data_[0] = value;
  return t;
}

Tensor::Tensor(const Shape& shape, Uninit) : shape_(shape) { allocate(); }

Tensor Tensor::uninitialized(const Shape& shape) {
  return Tensor(shape, Uninit{});
}

Tensor Tensor::uniform(const Shape& shape, Rng& rng, float lo, float hi) {
  Tensor t = uninitialized(shape);
  for (size_t i = 0; i < t.size_; ++i) {
    t.data_[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::normal(const Shape& shape, Rng& rng, float mean, float stddev) {
  Tensor t = uninitialized(shape);
  for (size_t i = 0; i < t.size_; ++i) {
    t.data_[i] = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::arange(const Shape& shape) {
  Tensor t = uninitialized(shape);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data_[static_cast<size_t>(i)] = static_cast<float>(i);
  }
  return t;
}

float& Tensor::at(int64_t i) {
  ROADFUSION_CHECK(i >= 0 && i < numel(),
                   "flat index " << i << " out of range for " << shape_.str());
  return data_[static_cast<size_t>(i)];
}

float Tensor::at(int64_t i) const {
  ROADFUSION_CHECK(i >= 0 && i < numel(),
                   "flat index " << i << " out of range for " << shape_.str());
  return data_[static_cast<size_t>(i)];
}

float& Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) {
  return data_[static_cast<size_t>(shape_.offset4(n, c, h, w))];
}

float Tensor::at4(int64_t n, int64_t c, int64_t h, int64_t w) const {
  return data_[static_cast<size_t>(shape_.offset4(n, c, h, w))];
}

Tensor Tensor::reshaped(const Shape& shape) const& {
  return Tensor(*this).reshaped(shape);
}

Tensor Tensor::reshaped(const Shape& shape) && {
  ROADFUSION_CHECK(shape.numel() == numel(),
                   "reshape " << shape_.str() << " -> " << shape.str()
                              << " changes numel");
  Tensor out = std::move(*this);
  out.shape_ = shape;
  return out;
}

void Tensor::fill(float value) { std::fill(data_, data_ + size_, value); }

bool Tensor::allclose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) {
    return false;
  }
  for (size_t i = 0; i < size_; ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) {
      return false;
    }
  }
  return true;
}

float Tensor::sum() const {
  double acc = 0.0;
  for (size_t i = 0; i < size_; ++i) {
    acc += data_[i];
  }
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  return numel() == 0 ? 0.0f : sum() / static_cast<float>(numel());
}

float Tensor::min() const {
  ROADFUSION_CHECK(size_ > 0, "min of empty tensor");
  return *std::min_element(data_, data_ + size_);
}

float Tensor::max() const {
  ROADFUSION_CHECK(size_ > 0, "max of empty tensor");
  return *std::max_element(data_, data_ + size_);
}

std::string Tensor::str() const {
  std::ostringstream out;
  out << "Tensor" << shape_.str() << " {";
  const int64_t preview = std::min<int64_t>(numel(), 8);
  for (int64_t i = 0; i < preview; ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << data_[static_cast<size_t>(i)];
  }
  if (numel() > preview) {
    out << ", ...";
  }
  out << "}";
  return out.str();
}

}  // namespace roadfusion::tensor
