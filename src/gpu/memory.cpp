#include "gpu/memory.hpp"

#include <algorithm>

#include "core/fmt.hpp"

namespace saclo::gpu {

namespace {
std::int64_t align_up(std::int64_t bytes, std::int64_t alignment) {
  return (bytes + alignment - 1) / alignment * alignment;
}
}  // namespace

BufferHandle DeviceMemoryPool::allocate(std::int64_t bytes) { return insert(bytes, true); }

BufferHandle DeviceMemoryPool::allocate_for_overwrite(std::int64_t bytes) {
  return insert(bytes, false);
}

BufferHandle DeviceMemoryPool::insert(std::int64_t bytes, bool zeroed) {
  if (bytes < 0) throw DeviceMemoryError(cat("allocate(", bytes, ") is negative"));
  const std::int64_t reserved = align_up(bytes, kAlignment);
  if (used_ + reserved > capacity_) {
    throw DeviceMemoryError(cat("device out of memory: requested ", bytes, " bytes (", reserved,
                                " aligned), ", capacity_ - used_, " of ", capacity_,
                                " available"));
  }
  const auto n = static_cast<std::size_t>(bytes);
  BufferHandle h{next_id_++, bytes};
  buffers_.emplace(h.id, Block{zeroed ? std::make_unique<std::byte[]>(n)
                                      : std::make_unique_for_overwrite<std::byte[]>(n),
                               bytes, reserved});
  used_ += reserved;
  if (used_ > peak_) peak_ = used_;
  return h;
}

void DeviceMemoryPool::free(BufferHandle handle) {
  auto it = buffers_.find(handle.id);
  if (it == buffers_.end()) {
    if (handle.id != 0 && handle.id < next_id_) {
      throw DeviceMemoryError(cat("double free of device buffer id ", handle.id,
                                  ": the handle was already freed (or recycled by a caching "
                                  "allocator and returned twice)"));
    }
    throw DeviceMemoryError(cat("free of invalid device buffer id ", handle.id,
                                ": never allocated by this pool"));
  }
  used_ -= it->second.reserved;
  buffers_.erase(it);
}

const DeviceMemoryPool::Block& DeviceMemoryPool::block_of(BufferHandle handle) const {
  auto it = buffers_.find(handle.id);
  if (it == buffers_.end()) {
    throw DeviceMemoryError(cat("access to invalid device buffer id ", handle.id));
  }
  if (handle.bytes < 0 || handle.bytes > it->second.bytes) {
    throw DeviceMemoryError(cat("handle of ", handle.bytes, " bytes to device buffer id ",
                                handle.id, " of ", it->second.bytes, " bytes"));
  }
  return it->second;
}

std::span<std::byte> DeviceMemoryPool::bytes(BufferHandle handle) {
  return {block_of(handle).data.get(), static_cast<std::size_t>(handle.bytes)};
}

std::span<const std::byte> DeviceMemoryPool::bytes(BufferHandle handle) const {
  return {block_of(handle).data.get(), static_cast<std::size_t>(handle.bytes)};
}

std::vector<std::int64_t> HostFramePool::lend(std::size_t elements) {
  const auto same = std::find_if(free_.begin(), free_.end(),
                                 [elements](const auto& b) { return b.size() == elements; });
  if (same != free_.end()) {
    std::vector<std::int64_t> buffer = std::move(*same);
    free_.erase(same);
    ++lent_;
    return buffer;
  }
  // Another size: it takes the smallest retained buffer's place.
  const auto smallest = std::min_element(
      free_.begin(), free_.end(), [](const auto& a, const auto& b) { return a.size() < b.size(); });
  if (smallest != free_.end()) free_.erase(smallest);
  std::vector<std::int64_t> buffer(elements);
  most_lent_ = std::max(most_lent_, ++lent_);
  free_.reserve(most_lent_);  // room for every loan to come back
  return buffer;
}

void HostFramePool::give_back(std::vector<std::int64_t> buffer) noexcept {
  if (lent_ == 0) return;  // nothing is out: not this pool's loan
  --lent_;
  if (!buffer.empty()) free_.push_back(std::move(buffer));
}

}  // namespace saclo::gpu
