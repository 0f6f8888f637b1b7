#include "serve/allocator.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "gpu/memory.hpp"

namespace saclo::serve {
namespace {

TEST(CachingAllocatorTest, SizeClassesArePow2WithA256Floor) {
  EXPECT_EQ(CachingDeviceAllocator::size_class(1), 256);
  EXPECT_EQ(CachingDeviceAllocator::size_class(255), 256);
  EXPECT_EQ(CachingDeviceAllocator::size_class(256), 256);
  EXPECT_EQ(CachingDeviceAllocator::size_class(257), 512);
  EXPECT_EQ(CachingDeviceAllocator::size_class(1000), 1024);
  EXPECT_EQ(CachingDeviceAllocator::size_class(4096), 4096);
  EXPECT_EQ(CachingDeviceAllocator::size_class(4097), 8192);
}

TEST(CachingAllocatorTest, ReusesAFreedBlockOfTheSameClass) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate(100);
  EXPECT_EQ(a.bytes, 100);  // logical size; backing store is the class
  EXPECT_EQ(pool.used_bytes(), 256);
  EXPECT_EQ(pool.bytes(a).size(), 100u);  // views stop at the logical size
  cache.free(a);

  // Same class (256) -> served from the cache, same pool buffer.
  const gpu::BufferHandle b = cache.allocate(120);
  EXPECT_EQ(b.id, a.id);

  const CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.frees, 1);
  EXPECT_EQ(s.live_blocks, 1);
  EXPECT_EQ(s.cached_blocks, 0);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(CachingAllocatorTest, DifferentClassMissesTheCache) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate(100);  // class 256
  cache.free(a);
  const gpu::BufferHandle b = cache.allocate(300);  // class 512
  EXPECT_NE(b.id, a.id);

  const CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.cached_blocks, 1);  // the 256 block stays parked
  EXPECT_EQ(s.cached_bytes, 256);
}

TEST(CachingAllocatorTest, RecycledBlocksComeBackZeroFilled) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate(64);
  for (std::byte& b : pool.bytes(a)) b = std::byte{0xAB};
  cache.free(a);

  const gpu::BufferHandle b = cache.allocate(64);
  ASSERT_EQ(b.id, a.id);
  for (std::byte byte : pool.bytes(b)) EXPECT_EQ(byte, std::byte{0});
}

TEST(CachingAllocatorTest, ViewsAreTightOnABlockOfALargerClass) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate_for_overwrite(500);  // class 512
  EXPECT_EQ(pool.bytes(a).size(), 500u);
  for (std::byte& b : pool.bytes(a)) b = std::byte{0xAB};
  cache.free(a);

  // A smaller request reuses the block; its views stop at 300 bytes, so
  // the previous owner's bytes 300..499 are out of reach.
  const gpu::BufferHandle b = cache.allocate_for_overwrite(300);
  ASSERT_EQ(b.id, a.id);
  EXPECT_EQ(pool.bytes(b).size(), 300u);
  EXPECT_EQ(pool.view<std::int32_t>(b).size(), 75u);
  // A handle claiming more than its block is refused, not widened.
  EXPECT_THROW(pool.bytes(gpu::BufferHandle{b.id, 513}), gpu::DeviceMemoryError);
}

TEST(CachingAllocatorTest, ForOverwriteReusesABlockAsItIs) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate(64);
  for (std::byte& b : pool.bytes(a)) b = std::byte{0xAB};
  cache.free(a);

  const gpu::BufferHandle b = cache.allocate_for_overwrite(64);
  ASSERT_EQ(b.id, a.id);
  for (std::byte byte : pool.bytes(b)) EXPECT_EQ(byte, std::byte{0xAB}) << "no memset on reuse";
}

TEST(CachingAllocatorTest, AllocateZeroesABlockLastUsedForOverwrite) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate_for_overwrite(1000);
  for (std::byte& b : pool.bytes(a)) b = std::byte{0xAB};
  cache.free(a);

  const gpu::BufferHandle b = cache.allocate(900);
  ASSERT_EQ(b.id, a.id);
  ASSERT_EQ(pool.bytes(b).size(), 900u);
  for (std::byte byte : pool.bytes(b)) EXPECT_EQ(byte, std::byte{0});
}

TEST(CachingAllocatorTest, StatsCountAllocateAndAllocateForOverwrite) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate_for_overwrite(100);  // miss
  const gpu::BufferHandle b = cache.allocate(100);                // miss
  cache.free(a);
  cache.free(b);
  const gpu::BufferHandle c = cache.allocate(200);                // hit
  const gpu::BufferHandle d = cache.allocate_for_overwrite(200);  // hit
  const gpu::BufferHandle e = cache.allocate_for_overwrite(4000);  // miss

  const CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.frees, 2);
  EXPECT_EQ(s.live_blocks, 3);
  EXPECT_EQ(s.requested_bytes, 4400);
  EXPECT_EQ(s.live_bytes, 256 + 256 + 4096);
  cache.free(c);
  cache.free(d);
  cache.free(e);
  EXPECT_EQ(cache.stats().live_blocks, 0);
}

TEST(CachingAllocatorTest, DoubleFreeOfARecycledHandleThrows) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate(100);
  cache.free(a);
  try {
    cache.free(a);
    FAIL() << "expected DeviceMemoryError";
  } catch (const gpu::DeviceMemoryError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("double free"), std::string::npos) << what;
    EXPECT_NE(what.find("recycled"), std::string::npos) << what;
  }
}

TEST(CachingAllocatorTest, ForeignHandlesAreForwardedToThePool) {
  gpu::DeviceMemoryPool pool(1 << 20);
  const gpu::BufferHandle raw = pool.allocate(64);
  CachingDeviceAllocator cache(pool);
  cache.free(raw);  // allocated before the cache was installed
  EXPECT_EQ(pool.live_allocations(), 0u);
  EXPECT_EQ(cache.stats().frees, 0);  // not parked, not counted
}

TEST(CachingAllocatorTest, TrimReleasesParkedBlocksToThePool) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  cache.free(cache.allocate(100));
  cache.free(cache.allocate(300));
  EXPECT_EQ(pool.live_allocations(), 2u);

  cache.trim();
  EXPECT_EQ(pool.live_allocations(), 0u);
  const CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.cached_blocks, 0);
  EXPECT_EQ(s.cached_bytes, 0);
  EXPECT_EQ(s.trimmed_blocks, 2);
}

TEST(CachingAllocatorTest, DeviceOomTrimsTheCacheAndRetries) {
  gpu::DeviceMemoryPool pool(1024);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate(512);
  cache.free(a);  // parked: the pool still charges 512 of 1024

  // Class 1024 doesn't fit next to the parked 512 -> the allocator
  // releases the cache and retries instead of surfacing the OOM.
  const gpu::BufferHandle b = cache.allocate(1024);
  EXPECT_TRUE(b.valid());
  const CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.trimmed_blocks, 1);
  EXPECT_EQ(s.cached_blocks, 0);
  cache.free(b);
}

TEST(CachingAllocatorTest, OomWithEmptyCacheStillThrows) {
  gpu::DeviceMemoryPool pool(1024);
  CachingDeviceAllocator cache(pool);
  EXPECT_THROW(cache.allocate(4096), gpu::DeviceMemoryError);
}

TEST(CachingAllocatorTest, FragmentationCountsUnrequestedClassBytes) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate(300);  // class 512
  CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.live_bytes, 512);
  EXPECT_EQ(s.requested_bytes, 300);
  EXPECT_DOUBLE_EQ(s.fragmentation(), (512.0 - 300.0) / 512.0);

  cache.free(a);
  s = cache.stats();
  EXPECT_EQ(s.live_bytes, 0);
  EXPECT_DOUBLE_EQ(s.fragmentation(), 0.0);
}

TEST(CachingAllocatorTest, SteadyStateLoopStopsMissingAfterWarmup) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  // A frame loop allocating the same shapes every iteration: one warmup
  // round of misses, then every allocation is a cache hit and the pool
  // sees zero new raw allocations.
  const std::int64_t shapes[] = {1000, 4000, 256};
  for (std::int64_t bytes : shapes) cache.free(cache.allocate(bytes));
  const CachingDeviceAllocator::Stats warm = cache.stats();
  const std::size_t pool_blocks = pool.live_allocations();

  for (int iter = 0; iter < 10; ++iter) {
    for (std::int64_t bytes : shapes) cache.free(cache.allocate(bytes));
  }
  const CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.misses, warm.misses);
  EXPECT_EQ(s.hits, warm.hits + 30);
  EXPECT_EQ(pool.live_allocations(), pool_blocks);
  EXPECT_EQ(pool.peak_bytes(), warm.pool_peak_bytes);
}

TEST(CachingAllocatorTest, ReclaimLiveSweepsLeakedBlocksBackToTheCache) {
  // The failover sweep: a job died mid-frame-loop and (hypothetically)
  // left live blocks behind. reclaim_live() parks them for reuse
  // instead of leaking them for the device's lifetime.
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);

  const gpu::BufferHandle a = cache.allocate(100);   // class 256
  const gpu::BufferHandle b = cache.allocate(3000);  // class 4096
  EXPECT_EQ(cache.reclaim_live(), 2);

  CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.reclaimed_blocks, 2);
  EXPECT_EQ(s.live_blocks, 0);
  EXPECT_EQ(s.live_bytes, 0);
  EXPECT_EQ(s.requested_bytes, 0);
  EXPECT_EQ(s.cached_blocks, 2);
  EXPECT_EQ(s.cached_bytes, 256 + 4096);

  // The swept blocks serve the next job from the cache...
  const gpu::BufferHandle c = cache.allocate(200);
  EXPECT_EQ(c.id, a.id);
  // ...zero-filled, so a retried job can't observe the dead job's data.
  for (std::byte byte : pool.bytes(c)) EXPECT_EQ(byte, std::byte{0});
  // The stale handle of the reclaimed block is now a double free.
  EXPECT_THROW(cache.free(b), gpu::DeviceMemoryError);

  // Idempotent when nothing is live.
  cache.free(c);
  EXPECT_EQ(cache.reclaim_live(), 0);
}

TEST(CachingAllocatorCapTest, CapEvictsLeastRecentlyParkedFirst) {
  gpu::DeviceMemoryPool pool(1 << 20);
  // Cap = two 256-byte blocks per class.
  CachingDeviceAllocator cache(pool, 512);

  const gpu::BufferHandle a = cache.allocate(100);
  const gpu::BufferHandle b = cache.allocate(100);
  const gpu::BufferHandle c = cache.allocate(100);
  const std::uint64_t a_id = a.id;
  const std::uint64_t b_id = b.id;
  const std::uint64_t c_id = c.id;
  cache.free(a);  // parked first — the coldest
  cache.free(b);
  cache.free(c);  // overflows the cap: a (LRU) is evicted, b and c stay

  CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.cap_evictions, 1);
  EXPECT_EQ(s.cached_blocks, 2);
  EXPECT_EQ(s.cached_bytes, 512);

  // Reuse is MRU: c (warmest) first, then b; a's buffer went back to
  // the pool, so the third allocation is a fresh miss.
  EXPECT_EQ(cache.allocate(100).id, c_id);
  EXPECT_EQ(cache.allocate(100).id, b_id);
  const gpu::BufferHandle fresh = cache.allocate(100);
  EXPECT_NE(fresh.id, a_id);
  s = cache.stats();
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.misses, 4);
}

TEST(CachingAllocatorCapTest, CapIsPerClassNotGlobal) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool, 1024);

  // Four 256-class blocks (cap allows 4) and one 1024-class block
  // (cap allows 1): both classes fill to their own cap, no eviction.
  std::vector<gpu::BufferHandle> small;
  for (int i = 0; i < 4; ++i) small.push_back(cache.allocate(200));
  const gpu::BufferHandle big = cache.allocate(1000);
  for (const gpu::BufferHandle& h : small) cache.free(h);
  cache.free(big);
  EXPECT_EQ(cache.stats().cap_evictions, 0);
  EXPECT_EQ(cache.stats().cached_bytes, 4 * 256 + 1024);

  // Overflowing the 256 class takes more simultaneous live blocks than
  // its cap admits (reuse-then-repark can never grow the parked count):
  // five live at once, freed together, parks a fifth block over the cap
  // and evicts from that class only — the 1024 class is untouched.
  std::vector<gpu::BufferHandle> five;
  for (int i = 0; i < 5; ++i) five.push_back(cache.allocate(200));
  for (const gpu::BufferHandle& h : five) cache.free(h);
  const CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.cap_evictions, 1);
  EXPECT_EQ(s.cached_bytes, 4 * 256 + 1024);
}

TEST(CachingAllocatorCapTest, MixedGeometryStormRespectsCapAndKeepsInvariants) {
  gpu::DeviceMemoryPool pool(8 << 20);
  const std::int64_t cap = 6144;  // a few blocks of every class under test
  CachingDeviceAllocator cache(pool, cap);

  // Deterministic mixed-geometry storm: allocation sizes cycle through
  // several size classes, three of every size live at once per round,
  // like a fleet device triple-buffering tiny and wide frames. The six
  // live 2048-class blocks (12 KiB) exceed that class's 6 KiB cap, so
  // every round's bulk free overflows it and the LRU blocks go back to
  // the pool.
  const std::int64_t sizes[] = {100, 300, 1000, 2000, 120, 900, 50, 1500};
  std::vector<gpu::BufferHandle> live;
  double last_hit_rate = 0.0;
  for (int round = 0; round < 50; ++round) {
    for (int rep = 0; rep < 3; ++rep)
      for (std::int64_t size : sizes) live.push_back(cache.allocate(size));
    // Free in a shuffled-ish (reverse) order so park order differs from
    // allocation order.
    while (!live.empty()) {
      cache.free(live.back());
      live.pop_back();
    }
    const CachingDeviceAllocator::Stats s = cache.stats();
    // The cap bounds every class's parked bytes at all times.
    EXPECT_LE(s.cached_bytes, 4 * cap);  // 4 distinct classes in the mix
    // Steady state recycles the same warm blocks, so the hit rate is
    // monotone non-decreasing over rounds.
    EXPECT_GE(s.hit_rate() + 1e-12, last_hit_rate);
    last_hit_rate = s.hit_rate();
  }
  const CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_GT(s.cap_evictions, 0);  // the storm did overflow classes
  EXPECT_GT(s.hit_rate(), 0.8);   // and still mostly recycled
  EXPECT_EQ(s.live_blocks, 0);

  // Double-free detection survives the cap machinery: a handle whose
  // block was cap-evicted is indistinguishable from any other stale
  // handle — freeing it again must still throw.
  const gpu::BufferHandle h = cache.allocate(100);
  cache.free(h);
  EXPECT_THROW(cache.free(h), gpu::DeviceMemoryError);
}

TEST(CachingAllocatorCapTest, ReclaimLiveEnforcesTheCapToo) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool, 512);

  // Three live blocks of one class; a fault-abort sweep parks all
  // three at once, which must not leave the class over its cap.
  (void)cache.allocate(100);
  (void)cache.allocate(100);
  (void)cache.allocate(100);
  EXPECT_EQ(cache.reclaim_live(), 3);
  const CachingDeviceAllocator::Stats s = cache.stats();
  EXPECT_EQ(s.cached_bytes, 512);
  EXPECT_GE(s.cap_evictions, 1);
}

TEST(CachingAllocatorCapTest, UncappedKeepsEveryParkedBlock) {
  gpu::DeviceMemoryPool pool(1 << 20);
  CachingDeviceAllocator cache(pool);  // 0 = uncapped, historical behavior
  std::vector<gpu::BufferHandle> blocks;
  for (int i = 0; i < 32; ++i) blocks.push_back(cache.allocate(100));
  for (const gpu::BufferHandle& h : blocks) cache.free(h);
  EXPECT_EQ(cache.stats().cap_evictions, 0);
  EXPECT_EQ(cache.stats().cached_blocks, 32);
}

TEST(CachingAllocatorTest, DestructorReturnsCachedBlocksToThePool) {
  gpu::DeviceMemoryPool pool(1 << 20);
  {
    CachingDeviceAllocator cache(pool);
    cache.free(cache.allocate(100));
    cache.free(cache.allocate(5000));
    EXPECT_EQ(pool.live_allocations(), 2u);
  }
  EXPECT_EQ(pool.live_allocations(), 0u);
  EXPECT_EQ(pool.used_bytes(), 0);
}

}  // namespace
}  // namespace saclo::serve
