#pragma once

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "core/fmt.hpp"
#include "core/shape.hpp"

namespace saclo {

/// An owning, contiguous, row-major multidimensional array.
///
/// This is the common value type exchanged between the SaC interpreter,
/// both code generators, the GPU simulator and the tests. It favours a
/// simple contiguous representation: the systems under study (tilers,
/// with-loops) create and consume whole arrays, so views/striding are
/// not needed on the hot paths.
template <typename T>
class NDArray {
 public:
  NDArray() : shape_({}) , data_(1, T{}) {}

  explicit NDArray(Shape shape, T fill = T{})
      : shape_(std::move(shape)), data_(static_cast<std::size_t>(shape_.elements()), fill) {}

  NDArray(Shape shape, std::vector<T> data) : shape_(std::move(shape)), data_(std::move(data)) {
    if (static_cast<std::int64_t>(data_.size()) != shape_.elements()) {
      throw ShapeError(cat("NDArray data size ", data_.size(), " != shape ",
                           shape_.to_string(), " elements ", shape_.elements()));
    }
  }

  /// Rank-0 (scalar) array.
  static NDArray scalar(T value) {
    NDArray a;
    a.data_[0] = value;
    return a;
  }

  const Shape& shape() const { return shape_; }
  std::int64_t elements() const { return static_cast<std::int64_t>(data_.size()); }

  T& operator[](std::int64_t linear) { return data_[static_cast<std::size_t>(linear)]; }
  const T& operator[](std::int64_t linear) const { return data_[static_cast<std::size_t>(linear)]; }

  T& at(const Index& idx) { return data_[static_cast<std::size_t>(shape_.linearize(idx))]; }
  const T& at(const Index& idx) const {
    return data_[static_cast<std::size_t>(shape_.linearize(idx))];
  }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }
  /// Hands the element storage over; the array is left empty.
  std::vector<T> release() && { return std::move(data_); }

  bool operator==(const NDArray& other) const = default;

  /// Reinterprets the same elements under a new shape with equal element
  /// count (rank-preserving reshape is not required).
  NDArray reshaped(Shape new_shape) const {
    if (new_shape.elements() != shape_.elements()) {
      throw ShapeError(cat("reshape ", shape_.to_string(), " -> ", new_shape.to_string(),
                           " changes element count"));
    }
    return NDArray(std::move(new_shape), data_);
  }

  /// Builds an array by evaluating `fn` at each index (row-major order).
  template <typename Fn>
  static NDArray generate(Shape shape, Fn&& fn) {
    NDArray out(std::move(shape));
    std::int64_t linear = 0;
    for_each_index(out.shape(), [&](const Index& idx) { out.data_[linear++] = fn(idx); });
    return out;
  }

 private:
  Shape shape_;
  std::vector<T> data_;
};

using IntArray = NDArray<std::int64_t>;
using FloatArray = NDArray<double>;
/// A frame in the device's pixel format: the paper's 32-bit ints.
using PixelArray = NDArray<std::int32_t>;

/// `a`'s elements converted to `To`, in `a`'s shape.
template <typename To, typename From>
NDArray<To> converted(const NDArray<From>& a) {
  return NDArray<To>(a.shape(), std::vector<To>(a.data().begin(), a.data().end()));
}

}  // namespace saclo
