#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/error.hpp"

namespace saclo::gpu {

/// Raised on device out-of-memory or use of an invalid buffer handle.
class DeviceMemoryError : public Error {
 public:
  using Error::Error;
};

/// Opaque handle to a device allocation (the simulator's cudaMalloc /
/// clCreateBuffer result). `bytes` is the logical (requested) size; the
/// backing block may be larger (alignment padding, allocator size
/// classes), but every view of the handle spans exactly `bytes`.
struct BufferHandle {
  std::uint64_t id = 0;
  std::int64_t bytes = 0;
  bool valid() const { return id != 0; }
};

/// Anything that can hand out and take back device buffers: the raw
/// DeviceMemoryPool, or a caching layer on top of it (serve's
/// CachingDeviceAllocator). RAII owners and the runtime façades
/// allocate through this interface so a caching layer can be installed
/// on a device without touching the pipelines.
class BufferAllocator {
 public:
  virtual ~BufferAllocator() = default;
  /// A buffer of `bytes` zero bytes.
  virtual BufferHandle allocate(std::int64_t bytes) = 0;
  /// A buffer of `bytes` unspecified bytes (after
  /// std::make_unique_for_overwrite): the caller must write every
  /// element before it reads one, which it proves at plan time.
  /// Zeroes are valid unspecified contents, so the default is
  /// allocate().
  virtual BufferHandle allocate_for_overwrite(std::int64_t bytes) { return allocate(bytes); }
  virtual void free(BufferHandle handle) = 0;
};

/// Simulated device global memory: allocations are backed by host
/// blocks (so kernels can execute functionally) while capacity
/// accounting enforces the device's memory size. allocate() blocks are
/// zeroed; allocate_for_overwrite() blocks are not, so pages nobody
/// touches are never faulted in.
///
/// Like cudaMalloc, every allocation is aligned: capacity accounting
/// rounds the block up to kAlignment bytes (the backing store keeps the
/// exact requested size).
class DeviceMemoryPool final : public BufferAllocator {
 public:
  /// cudaMalloc guarantees at least 256-byte alignment on every device.
  static constexpr std::int64_t kAlignment = 256;

  explicit DeviceMemoryPool(std::int64_t capacity_bytes) : capacity_(capacity_bytes) {}

  BufferHandle allocate(std::int64_t bytes) override;
  BufferHandle allocate_for_overwrite(std::int64_t bytes) override;
  void free(BufferHandle handle) override;

  /// Raw access to a buffer's first `handle.bytes` bytes, so no view
  /// sees past the logical size of a block a caching layer rounded up;
  /// throws on stale handles and on a handle larger than its block.
  std::span<std::byte> bytes(BufferHandle handle);
  std::span<const std::byte> bytes(BufferHandle handle) const;

  /// Typed view; `handle` must hold a whole number of T.
  template <typename T>
  std::span<T> view(BufferHandle handle) {
    auto raw = bytes(handle);
    if (raw.size() % sizeof(T) != 0) {
      throw DeviceMemoryError("buffer size is not a multiple of element size");
    }
    return {reinterpret_cast<T*>(raw.data()), raw.size() / sizeof(T)};
  }

  std::int64_t used_bytes() const { return used_; }
  /// High-water mark of used_bytes() over the pool's lifetime.
  std::int64_t peak_bytes() const { return peak_; }
  std::int64_t capacity_bytes() const { return capacity_; }
  std::size_t live_allocations() const { return buffers_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::int64_t bytes = 0;     ///< backing-store size
    std::int64_t reserved = 0;  ///< aligned size charged against capacity
  };

  BufferHandle insert(std::int64_t bytes, bool zeroed);
  const Block& block_of(BufferHandle handle) const;

  std::int64_t capacity_;
  std::int64_t used_ = 0;
  std::int64_t peak_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Block> buffers_;
};

/// RAII owner of a BufferHandle (Core Guidelines I.11: no raw-handle
/// ownership across API boundaries). Works against any BufferAllocator,
/// so buffers created through a caching layer are returned to it.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(BufferAllocator& allocator, std::int64_t bytes)
      : allocator_(&allocator), handle_(allocator.allocate(bytes)) {}
  /// Owns an allocate_for_overwrite() block (see BufferAllocator).
  static DeviceBuffer for_overwrite(BufferAllocator& allocator, std::int64_t bytes) {
    DeviceBuffer b;
    b.allocator_ = &allocator;
    b.handle_ = allocator.allocate_for_overwrite(bytes);
    return b;
  }
  ~DeviceBuffer() { reset(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& other) noexcept { swap(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      swap(other);
    }
    return *this;
  }

  BufferHandle handle() const { return handle_; }
  std::int64_t bytes() const { return handle_.bytes; }
  bool valid() const { return handle_.valid(); }

  void reset() {
    if (allocator_ != nullptr && handle_.valid()) allocator_->free(handle_);
    allocator_ = nullptr;
    handle_ = {};
  }

 private:
  void swap(DeviceBuffer& other) {
    std::swap(allocator_, other.allocator_);
    std::swap(handle_, other.handle_);
  }
  BufferAllocator* allocator_ = nullptr;
  BufferHandle handle_{};
};

/// The int64 host frame buffers of one device: what the pinned staging
/// buffers a CUDA application allocates once are to it. An executed
/// frame borrows its host array here and gives it back after its
/// upload, so steady-state frames neither allocate nor first-touch
/// their largest arrays. Storage is reused, never contents: a borrower
/// overwrites the whole buffer. Retention is bounded by the most
/// buffers ever out at once, and a request of a size no retained buffer
/// has replaces the smallest one instead of growing the pool. Not
/// thread-safe: like its device, one driver uses it at a time.
class HostFramePool {
 public:
  /// A buffer of exactly `elements` values, contents unspecified.
  std::vector<std::int64_t> lend(std::size_t elements);
  /// Ends a loan and keeps the storage for the next one. An empty
  /// buffer (its storage lost, say to an exception) only ends the loan.
  /// Never allocates, so a scope guard may call it.
  void give_back(std::vector<std::int64_t> buffer) noexcept;
  /// Buffers kept for reuse.
  std::size_t retained() const { return free_.size(); }

 private:
  // Invariant: free_.size() + lent_ <= most_lent_ <= free_.capacity().
  std::vector<std::vector<std::int64_t>> free_;
  std::size_t lent_ = 0;
  std::size_t most_lent_ = 0;
};

}  // namespace saclo::gpu
