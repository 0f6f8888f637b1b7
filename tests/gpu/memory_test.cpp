#include "gpu/memory.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace saclo::gpu {
namespace {

TEST(DeviceMemoryPoolTest, AllocatesAndTracksUsage) {
  DeviceMemoryPool pool(4096);
  const BufferHandle a = pool.allocate(100);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.bytes, 100);
  // Capacity accounting rounds to cudaMalloc's 256-byte alignment.
  EXPECT_EQ(pool.used_bytes(), 256);
  const BufferHandle b = pool.allocate(3840);
  EXPECT_EQ(pool.used_bytes(), 4096);
  pool.free(a);
  EXPECT_EQ(pool.used_bytes(), 3840);
  pool.free(b);
  EXPECT_EQ(pool.used_bytes(), 0);
}

TEST(DeviceMemoryPoolTest, AlignsReservationsTo256Bytes) {
  DeviceMemoryPool pool(1 << 20);
  (void)pool.allocate(1);
  EXPECT_EQ(pool.used_bytes(), 256);
  (void)pool.allocate(256);
  EXPECT_EQ(pool.used_bytes(), 512);
  (void)pool.allocate(257);
  EXPECT_EQ(pool.used_bytes(), 1024);
}

TEST(DeviceMemoryPoolTest, TracksPeakBytes) {
  DeviceMemoryPool pool(4096);
  const BufferHandle a = pool.allocate(256);
  const BufferHandle b = pool.allocate(512);
  EXPECT_EQ(pool.peak_bytes(), 768);
  pool.free(a);
  pool.free(b);
  EXPECT_EQ(pool.used_bytes(), 0);
  EXPECT_EQ(pool.peak_bytes(), 768);  // high-water mark survives frees
  (void)pool.allocate(1024);
  EXPECT_EQ(pool.peak_bytes(), 1024);
}

TEST(DeviceMemoryPoolTest, OutOfMemoryThrows) {
  DeviceMemoryPool pool(512);
  (void)pool.allocate(256);
  EXPECT_THROW(pool.allocate(300), DeviceMemoryError);
  // Alignment padding counts against capacity: 260 reserves 512.
  EXPECT_THROW(pool.allocate(260), DeviceMemoryError);
  (void)pool.allocate(256);
}

TEST(DeviceMemoryPoolTest, AllocateZeroesAndForOverwriteAccountsTheSame) {
  DeviceMemoryPool pool(4096);
  const BufferHandle a = pool.allocate(100);
  ASSERT_EQ(pool.bytes(a).size(), 100u);
  for (std::byte b : pool.bytes(a)) EXPECT_EQ(b, std::byte{0});
  const BufferHandle b = pool.allocate_for_overwrite(300);
  EXPECT_EQ(b.bytes, 300);
  EXPECT_EQ(pool.bytes(b).size(), 300u);
  EXPECT_EQ(pool.used_bytes(), 256 + 512);
  EXPECT_THROW(pool.allocate_for_overwrite(4096), DeviceMemoryError);
  pool.free(b);
  pool.free(a);
  EXPECT_EQ(pool.used_bytes(), 0);
}

TEST(DeviceMemoryPoolTest, ViewsSpanTheHandlesBytes) {
  DeviceMemoryPool pool(4096);
  const BufferHandle a = pool.allocate(64);
  EXPECT_EQ(pool.view<std::int32_t>(a).size(), 16u);
  EXPECT_EQ(pool.bytes(BufferHandle{a.id, 40}).size(), 40u);
  EXPECT_THROW(pool.bytes(BufferHandle{a.id, 65}), DeviceMemoryError);
  EXPECT_THROW(pool.bytes(BufferHandle{a.id, -1}), DeviceMemoryError);
}

TEST(DeviceMemoryPoolTest, DoubleFreeThrows) {
  DeviceMemoryPool pool(1024);
  const BufferHandle a = pool.allocate(10);
  pool.free(a);
  EXPECT_THROW(pool.free(a), DeviceMemoryError);
}

TEST(DeviceMemoryPoolTest, DoubleFreeMessageNamesTheRecycledHandle) {
  DeviceMemoryPool pool(1024);
  const BufferHandle a = pool.allocate(10);
  pool.free(a);
  try {
    pool.free(a);
    FAIL() << "double free did not throw";
  } catch (const DeviceMemoryError& e) {
    EXPECT_NE(std::string(e.what()).find("double free"), std::string::npos) << e.what();
  }
  // A handle that was never allocated gets the distinct message.
  try {
    pool.free(BufferHandle{999, 10});
    FAIL() << "foreign free did not throw";
  } catch (const DeviceMemoryError& e) {
    EXPECT_NE(std::string(e.what()).find("never allocated"), std::string::npos) << e.what();
  }
}

TEST(DeviceMemoryPoolTest, StaleHandleAccessThrows) {
  DeviceMemoryPool pool(1024);
  const BufferHandle a = pool.allocate(10);
  pool.free(a);
  EXPECT_THROW(pool.bytes(a), DeviceMemoryError);
}

TEST(DeviceMemoryPoolTest, TypedViewChecksElementSize) {
  DeviceMemoryPool pool(1024);
  const BufferHandle a = pool.allocate(10);  // not a multiple of 8
  EXPECT_THROW(pool.view<std::int64_t>(a), DeviceMemoryError);
  const BufferHandle b = pool.allocate(16);
  auto v = pool.view<std::int64_t>(b);
  EXPECT_EQ(v.size(), 2u);
}

TEST(DeviceMemoryPoolTest, BuffersAreZeroInitialised) {
  DeviceMemoryPool pool(1024);
  auto v = pool.view<std::int64_t>(pool.allocate(64));
  for (std::int64_t x : v) EXPECT_EQ(x, 0);
}

TEST(DeviceBufferTest, RaiiFreesOnDestruction) {
  DeviceMemoryPool pool(1024);
  {
    DeviceBuffer buf(pool, 40);
    EXPECT_EQ(pool.used_bytes(), 256);
  }
  EXPECT_EQ(pool.used_bytes(), 0);
  EXPECT_EQ(pool.live_allocations(), 0u);
}

TEST(DeviceBufferTest, MoveTransfersOwnership) {
  DeviceMemoryPool pool(1024);
  DeviceBuffer a(pool, 40);
  DeviceBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.used_bytes(), 256);
  DeviceBuffer c(pool, 20);
  c = std::move(b);
  EXPECT_EQ(pool.used_bytes(), 256);  // the 20-byte buffer was released
}

TEST(HostFramePoolTest, ReusesStorageOfTheSameSize) {
  HostFramePool pool;
  std::vector<std::int32_t> a = pool.lend(100);
  ASSERT_EQ(a.size(), 100u);
  const std::int32_t* storage = a.data();
  pool.give_back(std::move(a));
  EXPECT_EQ(pool.retained(), 1u);
  std::vector<std::int32_t> b = pool.lend(100);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(pool.retained(), 0u);
  pool.give_back(std::move(b));
}

TEST(HostFramePoolTest, RetainsAtMostTheMostBuffersOutAtOnce) {
  HostFramePool pool;
  std::vector<std::vector<std::int32_t>> out;
  for (std::size_t n : {10u, 20u, 30u}) out.push_back(pool.lend(n));
  for (auto& b : out) pool.give_back(std::move(b));
  EXPECT_EQ(pool.retained(), 3u);
  // Another size replaces the smallest retained buffer: still 3, and
  // the 10-element one is gone.
  out.clear();
  out.push_back(pool.lend(40));
  EXPECT_EQ(pool.retained(), 2u);
  pool.give_back(std::move(out.back()));
  EXPECT_EQ(pool.retained(), 3u);
  for (std::size_t n : {20u, 30u, 40u}) {
    std::vector<std::int32_t> b = pool.lend(n);
    EXPECT_EQ(b.size(), n);
    EXPECT_EQ(pool.retained(), 2u) << "a " << n << "-element buffer was retained";
    pool.give_back(std::move(b));
  }
  // A buffer the pool did not lend, and an emptied loan, add nothing.
  pool.give_back(std::vector<std::int32_t>(50));
  EXPECT_EQ(pool.retained(), 3u);
  std::vector<std::int32_t> lost = pool.lend(20);
  lost.clear();
  lost.shrink_to_fit();
  pool.give_back(std::move(lost));
  EXPECT_EQ(pool.retained(), 2u);
}

}  // namespace
}  // namespace saclo::gpu
