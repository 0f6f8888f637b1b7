#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace saclo {

/// Zeroed pages of an anonymous mapping of their own. Throws
/// std::bad_alloc when the mapping fails; unmap_pages(p, bytes) gives
/// them back.
void* map_pages(std::size_t bytes);
void unmap_pages(void* p, std::size_t bytes) noexcept;

/// n zero-filled elements of a trivial T in an anonymous mapping instead
/// of a heap block. For large tables whose place in the heap would
/// outlast them: glibc cannot trim a part of the heap that a later,
/// longer-lived block sits above, so a frame-sized table freed below the
/// model nodes allocated while it lived stays resident.
template <typename T>
class MappedArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  MappedArray() = default;
  explicit MappedArray(std::size_t n)
      : data_(n == 0 ? nullptr : static_cast<T*>(map_pages(n * sizeof(T)))), size_(n) {}
  ~MappedArray() { reset(); }

  MappedArray(MappedArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)), size_(std::exchange(o.size_, 0)) {}
  MappedArray& operator=(MappedArray&& o) noexcept {
    if (this != &o) {
      reset();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void reset() noexcept {
    if (data_ != nullptr) unmap_pages(data_, size_ * sizeof(T));
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace saclo
