#include "serve/allocator.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/fmt.hpp"

namespace saclo::serve {

CachingDeviceAllocator::~CachingDeviceAllocator() {
  // Return cached blocks so the pool's accounting ends clean. Live
  // blocks are the caller's bug; leave them to the pool's own checks.
  try {
    trim();
  } catch (...) {
    // Destructor must not throw; a dead pool means nothing to release.
  }
}

std::int64_t CachingDeviceAllocator::size_class(std::int64_t bytes) {
  const std::int64_t min_class = gpu::DeviceMemoryPool::kAlignment;
  if (bytes <= min_class) return min_class;
  return static_cast<std::int64_t>(std::bit_ceil(static_cast<std::uint64_t>(bytes)));
}

gpu::BufferHandle CachingDeviceAllocator::pop_cached(std::int64_t cls) {
  auto it = free_lists_.find(cls);
  if (it == free_lists_.end() || it->second.empty()) return {};
  const std::uint64_t id = it->second.back();
  it->second.pop_back();
  cached_ids_.erase(id);
  return gpu::BufferHandle{id, cls};
}

gpu::BufferHandle CachingDeviceAllocator::allocate(std::int64_t bytes) {
  return obtain(bytes, /*zeroed=*/true);
}

gpu::BufferHandle CachingDeviceAllocator::allocate_for_overwrite(std::int64_t bytes) {
  return obtain(bytes, /*zeroed=*/false);
}

gpu::BufferHandle CachingDeviceAllocator::obtain(std::int64_t bytes, bool zeroed) {
  if (bytes < 0) throw gpu::DeviceMemoryError(cat("allocate(", bytes, ") is negative"));
  const std::int64_t cls = size_class(bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  gpu::BufferHandle block = pop_cached(cls);
  if (block.valid()) {
    ++stats_.hits;
    stats_.cached_blocks -= 1;
    stats_.cached_bytes -= cls;
  } else {
    // The class block comes from the pool unzeroed: only the requested
    // bytes are ever visible, and a zeroed request clears them below.
    try {
      block = pool_->allocate_for_overwrite(cls);
    } catch (const gpu::DeviceMemoryError&) {
      // Device OOM with a warm cache: give the parked blocks back and
      // retry once (CUB does the same before surfacing cudaErrorMemoryAllocation).
      std::int64_t released = 0;
      for (auto& [list_cls, ids] : free_lists_) {
        for (std::uint64_t id : ids) {
          pool_->free(gpu::BufferHandle{id, list_cls});
          cached_ids_.erase(id);
          ++released;
          stats_.cached_blocks -= 1;
          stats_.cached_bytes -= list_cls;
          stats_.trimmed_blocks += 1;
        }
        ids.clear();
      }
      if (released == 0) throw;
      block = pool_->allocate_for_overwrite(cls);
    }
    ++stats_.misses;
  }
  // Hand out the logical size; the backing store keeps the class size.
  const gpu::BufferHandle handle{block.id, bytes};
  if (zeroed) {
    auto raw = pool_->bytes(handle);
    std::memset(raw.data(), 0, raw.size());
  }
  live_.emplace(block.id, cls);
  live_req_.emplace(block.id, bytes);
  stats_.live_blocks += 1;
  stats_.live_bytes += cls;
  stats_.requested_bytes += bytes;
  stats_.pool_peak_bytes = pool_->peak_bytes();
  return handle;
}

void CachingDeviceAllocator::enforce_cap_locked(std::int64_t cls) {
  if (class_cap_bytes_ <= 0) return;
  auto it = free_lists_.find(cls);
  if (it == free_lists_.end()) return;
  std::vector<std::uint64_t>& ids = it->second;
  // Parked bytes of this class = blocks * class size (every block on a
  // class list has exactly the class's backing size).
  while (!ids.empty() &&
         static_cast<std::int64_t>(ids.size()) * cls > class_cap_bytes_) {
    const std::uint64_t id = ids.front();
    ids.erase(ids.begin());  // the least-recently-parked block
    cached_ids_.erase(id);
    pool_->free(gpu::BufferHandle{id, cls});
    stats_.cached_blocks -= 1;
    stats_.cached_bytes -= cls;
    stats_.cap_evictions += 1;
  }
}

void CachingDeviceAllocator::free(gpu::BufferHandle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(handle.id);
  if (it == live_.end()) {
    if (cached_ids_.count(handle.id) != 0) {
      throw gpu::DeviceMemoryError(
          cat("double free of device buffer id ", handle.id,
              ": the handle was already recycled into the caching allocator"));
    }
    // Not ours: allocated straight from the pool before this layer was
    // installed. Forward, so mixed usage stays correct.
    pool_->free(handle);
    return;
  }
  const std::int64_t cls = it->second;
  live_.erase(it);
  auto rit = live_req_.find(handle.id);
  const std::int64_t requested = rit != live_req_.end() ? rit->second : 0;
  if (rit != live_req_.end()) live_req_.erase(rit);
  free_lists_[cls].push_back(handle.id);
  cached_ids_.insert(handle.id);
  stats_.frees += 1;
  stats_.live_blocks -= 1;
  stats_.live_bytes -= cls;
  stats_.requested_bytes -= requested;
  stats_.cached_blocks += 1;
  stats_.cached_bytes += cls;
  enforce_cap_locked(cls);
}

void CachingDeviceAllocator::trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [cls, ids] : free_lists_) {
    for (std::uint64_t id : ids) {
      pool_->free(gpu::BufferHandle{id, cls});
      cached_ids_.erase(id);
      stats_.cached_blocks -= 1;
      stats_.cached_bytes -= cls;
      stats_.trimmed_blocks += 1;
    }
    ids.clear();
  }
}

std::int64_t CachingDeviceAllocator::reclaim_live() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t reclaimed = 0;
  while (!live_.empty()) {
    const auto it = live_.begin();
    const std::uint64_t id = it->first;
    const std::int64_t cls = it->second;
    live_.erase(it);
    std::int64_t requested = 0;
    if (auto rit = live_req_.find(id); rit != live_req_.end()) {
      requested = rit->second;
      live_req_.erase(rit);
    }
    free_lists_[cls].push_back(id);
    cached_ids_.insert(id);
    stats_.live_blocks -= 1;
    stats_.live_bytes -= cls;
    stats_.requested_bytes -= requested;
    stats_.cached_blocks += 1;
    stats_.cached_bytes += cls;
    stats_.reclaimed_blocks += 1;
    ++reclaimed;
    enforce_cap_locked(cls);
  }
  return reclaimed;
}

CachingDeviceAllocator::Stats CachingDeviceAllocator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.pool_peak_bytes = pool_->peak_bytes();
  return s;
}

}  // namespace saclo::serve
