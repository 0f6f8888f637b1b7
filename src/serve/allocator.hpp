#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "gpu/memory.hpp"

namespace saclo::serve {

/// Caching device-buffer allocator in the style of CUB's
/// cudaMalloc-wrapping allocator, layered on the simulator's
/// DeviceMemoryPool.
///
/// Blocks are rounded up to power-of-two size classes (min 256 bytes —
/// the pool's alignment). free() never returns memory to the pool; it
/// parks the block on its class's free list, and the next allocate() of
/// the same class reuses it. A frame loop that allocates the same
/// shapes every iteration therefore does raw pool allocations only
/// during warmup — the steady state is all cache hits, which is what
/// keeps a serving fleet off the (real-world, milliseconds-long)
/// cudaMalloc/cudaFree path.
///
/// allocate() zero-fills the requested bytes of every block it hands
/// out, fresh or reused, so it reads like a fresh pool allocation;
/// allocate_for_overwrite() hands a block out as it is (the caller
/// writes every element first). Either way a handle's views span only
/// the requested bytes, never a previous owner's tail.
///
/// Thread-safe; in the fleet each device's dispatcher owns one
/// instance, while the metrics exporter reads stats() concurrently.
/// Without a cap, mixed-geometry traffic is a slow leak: every size
/// class a job mix ever touched keeps its high-water block count parked
/// forever, pinning whole-device memory against future geometries. A
/// per-size-class cap bounds the parked bytes of each class; free()
/// evicts least-recently-parked blocks back to the pool once a class
/// exceeds it (reuse pops the most-recently-parked end, so eviction
/// takes the coldest blocks first). 0 = uncapped, the historical
/// behavior.
class CachingDeviceAllocator final : public gpu::BufferAllocator {
 public:
  explicit CachingDeviceAllocator(gpu::DeviceMemoryPool& pool,
                                  std::int64_t class_cap_bytes = 0)
      : pool_(&pool), class_cap_bytes_(class_cap_bytes) {}
  ~CachingDeviceAllocator() override;

  CachingDeviceAllocator(const CachingDeviceAllocator&) = delete;
  CachingDeviceAllocator& operator=(const CachingDeviceAllocator&) = delete;

  /// Returns a block of at least `bytes` (its backing store is the full
  /// size class). Prefers a cached block; falls back to the pool, and
  /// on device OOM trims the cache once and retries.
  gpu::BufferHandle allocate(std::int64_t bytes) override;
  /// The same block choice without the zero-fill. Hits and misses count
  /// in stats() like allocate()'s.
  gpu::BufferHandle allocate_for_overwrite(std::int64_t bytes) override;

  /// Parks the block for reuse. Throws DeviceMemoryError on a double
  /// free of a cached handle; handles this allocator never saw are
  /// forwarded to the pool (mixed usage during installation).
  void free(gpu::BufferHandle handle) override;

  /// Releases every cached block back to the pool (cudaDeviceReset's
  /// little sibling). Live blocks are untouched.
  void trim();

  /// Fault-abort path: forcibly parks every live block on its free list
  /// as if its owner had freed it, and returns how many were reclaimed.
  /// The scheduler calls this after a DeviceFault has fully unwound a
  /// job (RAII owners are gone), so anything still live is a leak from
  /// the interrupted frame loop. Outstanding handles to reclaimed
  /// blocks become invalid — freeing one afterwards is a double free.
  std::int64_t reclaim_live();

  /// Rounds up to the allocation size class: 256-byte minimum, then
  /// powers of two.
  static std::int64_t size_class(std::int64_t bytes);

  /// The per-size-class cap on parked bytes (0 = uncapped).
  std::int64_t class_cap_bytes() const { return class_cap_bytes_; }

  struct Stats {
    std::int64_t hits = 0;            ///< allocations served from the cache
    std::int64_t misses = 0;          ///< allocations that hit the raw pool
    std::int64_t frees = 0;           ///< blocks parked for reuse
    std::int64_t trimmed_blocks = 0;  ///< blocks released by trim()
    std::int64_t reclaimed_blocks = 0;  ///< live blocks swept by reclaim_live()
    /// Blocks evicted LRU because their size class exceeded the
    /// per-class cache cap — the counter the autoscale bench watches to
    /// prove mixed-geometry traffic can't pin whole-device memory.
    std::int64_t cap_evictions = 0;
    std::int64_t live_blocks = 0;     ///< handed out, not yet freed
    std::int64_t cached_blocks = 0;   ///< parked on free lists
    std::int64_t live_bytes = 0;      ///< class bytes of live blocks
    std::int64_t cached_bytes = 0;    ///< class bytes parked on free lists
    std::int64_t requested_bytes = 0;  ///< sum of requested sizes, live blocks
    std::int64_t pool_peak_bytes = 0;  ///< underlying pool high-water mark

    double hit_rate() const {
      const std::int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    }
    /// Internal fragmentation of live blocks: the fraction of reserved
    /// class bytes the requests didn't ask for.
    double fragmentation() const {
      return live_bytes > 0
                 ? static_cast<double>(live_bytes - requested_bytes) /
                       static_cast<double>(live_bytes)
                 : 0.0;
    }
  };
  Stats stats() const;

 private:
  gpu::BufferHandle obtain(std::int64_t bytes, bool zeroed);
  gpu::BufferHandle pop_cached(std::int64_t cls);
  /// Evicts least-recently-parked blocks of `cls` until its parked
  /// bytes fit the cap. Caller holds mutex_.
  void enforce_cap_locked(std::int64_t cls);

  gpu::DeviceMemoryPool* pool_;
  std::int64_t class_cap_bytes_ = 0;  // 0 = uncapped
  mutable std::mutex mutex_;
  // class -> pool buffer ids, ordered oldest-parked first: free()
  // push_backs, reuse pops the back (MRU — warmest block), the cap
  // evicts from the front (LRU — coldest block).
  std::map<std::int64_t, std::vector<std::uint64_t>> free_lists_;
  std::set<std::uint64_t> cached_ids_;             // ids parked on any free list
  std::map<std::uint64_t, std::int64_t> live_;     // id -> size class
  std::map<std::uint64_t, std::int64_t> live_req_;  // id -> requested bytes
  Stats stats_;
};

}  // namespace saclo::serve
