#include "gpu/stream.hpp"

#include <gtest/gtest.h>

#include <array>

#include "gpu/device.hpp"
#include "gpu/sim_gpu.hpp"

namespace saclo::gpu {
namespace {

BufferHandle buf(std::uint64_t id) { return BufferHandle{id, 64}; }

TEST(TimelineTest, DefaultStreamSerializes) {
  Timeline t;
  auto a = t.schedule(kDefaultStream, 10.0);
  auto b = t.schedule(kDefaultStream, 5.0);
  EXPECT_DOUBLE_EQ(a.start_us, 0.0);
  EXPECT_DOUBLE_EQ(a.end_us, 10.0);
  EXPECT_DOUBLE_EQ(b.start_us, 10.0);
  EXPECT_DOUBLE_EQ(b.end_us, 15.0);
  EXPECT_DOUBLE_EQ(t.makespan_us(), 15.0);
}

TEST(TimelineTest, IndependentStreamsOverlap) {
  Timeline t;
  const StreamId s1 = t.create_stream();
  const StreamId s2 = t.create_stream();
  auto a = t.schedule(s1, 10.0);
  auto b = t.schedule(s2, 7.0);
  EXPECT_DOUBLE_EQ(a.start_us, 0.0);
  EXPECT_DOUBLE_EQ(b.start_us, 0.0);  // concurrent with a
  EXPECT_DOUBLE_EQ(t.makespan_us(), 10.0);  // max, not 17
}

TEST(TimelineTest, EventOrdersStreams) {
  Timeline t;
  const StreamId s1 = t.create_stream();
  const StreamId s2 = t.create_stream();
  t.schedule(s1, 10.0);
  const EventId e = t.record_event(s1);
  EXPECT_DOUBLE_EQ(t.event_us(e), 10.0);
  t.wait_event(s2, e);
  auto op = t.schedule(s2, 5.0);
  EXPECT_DOUBLE_EQ(op.start_us, 10.0);
  EXPECT_DOUBLE_EQ(t.makespan_us(), 15.0);
}

TEST(TimelineTest, ReadAfterWriteHazard) {
  Timeline t;
  const StreamId s1 = t.create_stream();
  const StreamId s2 = t.create_stream();
  const std::array<BufferHandle, 1> b = {buf(7)};
  t.schedule(s1, 10.0, {}, b);          // write on s1
  auto r = t.schedule(s2, 4.0, b, {});  // read on s2 must wait
  EXPECT_DOUBLE_EQ(r.start_us, 10.0);
  EXPECT_DOUBLE_EQ(r.end_us, 14.0);
}

TEST(TimelineTest, WriteAfterReadHazard) {
  Timeline t;
  const StreamId s1 = t.create_stream();
  const StreamId s2 = t.create_stream();
  const std::array<BufferHandle, 1> b = {buf(3)};
  t.schedule(s1, 8.0, b, {});           // read on s1
  auto w = t.schedule(s2, 2.0, {}, b);  // overwrite must wait for the read
  EXPECT_DOUBLE_EQ(w.start_us, 8.0);
}

TEST(TimelineTest, WriteAfterWriteHazard) {
  Timeline t;
  const StreamId s1 = t.create_stream();
  const StreamId s2 = t.create_stream();
  const std::array<BufferHandle, 1> b = {buf(9)};
  t.schedule(s1, 6.0, {}, b);
  auto w = t.schedule(s2, 6.0, {}, b);
  EXPECT_DOUBLE_EQ(w.start_us, 6.0);
}

TEST(TimelineTest, DisjointBuffersDoNotConstrain) {
  Timeline t;
  const StreamId s1 = t.create_stream();
  const StreamId s2 = t.create_stream();
  const std::array<BufferHandle, 1> a = {buf(1)};
  const std::array<BufferHandle, 1> b = {buf(2)};
  t.schedule(s1, 10.0, {}, a);
  auto op = t.schedule(s2, 10.0, {}, b);
  EXPECT_DOUBLE_EQ(op.start_us, 0.0);
}

TEST(TimelineTest, WaitUntilPushesTail) {
  Timeline t;
  const StreamId s = t.create_stream();
  t.wait_until(s, 42.0);
  auto op = t.schedule(s, 1.0);
  EXPECT_DOUBLE_EQ(op.start_us, 42.0);
  // wait_until never moves a tail backwards.
  t.wait_until(s, 10.0);
  EXPECT_DOUBLE_EQ(t.tail_us(s), 43.0);
}

TEST(TimelineTest, SynchronizeAlignsAllStreams) {
  Timeline t;
  const StreamId s1 = t.create_stream();
  const StreamId s2 = t.create_stream();
  t.schedule(s1, 25.0);
  t.schedule(s2, 5.0);
  t.synchronize();
  EXPECT_DOUBLE_EQ(t.tail_us(kDefaultStream), 25.0);
  EXPECT_DOUBLE_EQ(t.tail_us(s2), 25.0);
  auto op = t.schedule(s2, 1.0);
  EXPECT_DOUBLE_EQ(op.start_us, 25.0);
}

TEST(TimelineTest, InvalidStreamOrEventThrows) {
  Timeline t;
  EXPECT_THROW(t.schedule(5, 1.0), StreamError);
  EXPECT_THROW(t.tail_us(-1), StreamError);
  EXPECT_THROW(t.wait_event(kDefaultStream, 0), StreamError);
  EXPECT_THROW(t.event_us(3), StreamError);
}

TEST(TimelineTest, DoubleBufferThrottle) {
  // The canonical double-buffered pipeline: upload i waits on the
  // compute-done event of iteration i-2, so at most two iterations of
  // upload run ahead of compute.
  Timeline t;
  const StreamId up = t.create_stream();
  const StreamId comp = t.create_stream();
  std::vector<EventId> done;
  std::vector<Timeline::Interval> uploads;
  for (int i = 0; i < 6; ++i) {
    if (i >= 2) t.wait_event(up, done[static_cast<std::size_t>(i - 2)]);
    uploads.push_back(t.schedule(up, 1.0));
    const EventId e = t.record_event(up);
    t.wait_event(comp, e);
    t.schedule(comp, 10.0);
    done.push_back(t.record_event(comp));
  }
  // Iteration 0 and 1 upload immediately; iteration 2's upload waits
  // for compute 0 (ends at 11), iteration 3's for compute 1 (ends 21).
  EXPECT_DOUBLE_EQ(uploads[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(uploads[1].start_us, 1.0);
  EXPECT_DOUBLE_EQ(uploads[2].start_us, 11.0);
  EXPECT_DOUBLE_EQ(uploads[3].start_us, 21.0);
}

// --- VirtualGpu stream integration --------------------------------------------------

KernelLaunch noop_kernel(const char* name, std::int64_t threads) {
  KernelLaunch k;
  k.name = name;
  k.threads = threads;
  k.cost.flops_per_thread = 100;
  k.cost.global_loads_per_thread = 2;
  k.cost.global_stores_per_thread = 1;
  k.body = [](std::int64_t, std::int64_t) {};
  return k;
}

TEST(VirtualGpuStreamTest, SingleStreamClockEqualsSerializedSum) {
  VirtualGpu gpu(gtx480());
  const double k1 = gpu.launch(noop_kernel("a", 1 << 16), false);
  const double k2 = gpu.launch(noop_kernel("b", 1 << 16), false);
  EXPECT_DOUBLE_EQ(gpu.clock_us(), k1 + k2);
  EXPECT_DOUBLE_EQ(gpu.clock_us(), gpu.profiler().total_us());
}

TEST(VirtualGpuStreamTest, KernelsOnDistinctStreamsOverlap) {
  VirtualGpu gpu(gtx480());
  const StreamId s1 = gpu.create_stream();
  const StreamId s2 = gpu.create_stream();
  const double k1 = gpu.launch(noop_kernel("a", 1 << 16), false, s1);
  const double k2 = gpu.launch(noop_kernel("b", 1 << 16), false, s2);
  EXPECT_DOUBLE_EQ(gpu.clock_us(), std::max(k1, k2));
  EXPECT_LT(gpu.clock_us(), k1 + k2);
}

TEST(VirtualGpuStreamTest, BufferHazardOrdersTransferAndKernel) {
  VirtualGpu gpu(gtx480());
  const StreamId h2d = gpu.create_stream();
  const StreamId comp = gpu.create_stream();
  BufferHandle b = gpu.alloc(1 << 20);
  std::vector<std::byte> host(1 << 20);
  gpu.copy_h2d(b, host, "h2d", true, h2d);
  const double upload_end = gpu.stream_tail_us(h2d);
  KernelLaunch k = noop_kernel("consume", 1 << 10);
  const BufferHandle reads[] = {b};
  k.reads = reads;
  gpu.launch(k, false, comp);
  // The kernel reads the uploaded buffer: it cannot start before the
  // upload ends even though it sits on another stream.
  EXPECT_GE(gpu.stream_tail_us(comp), upload_end);
  const auto& iv = gpu.profiler().intervals().back();
  EXPECT_DOUBLE_EQ(iv.start_us, upload_end);
}

TEST(VirtualGpuStreamTest, ExecutionIsImmediateRegardlessOfStream) {
  // Functional results are bit-exact for any stream assignment because
  // execution happens in issue order; only the clock overlaps.
  VirtualGpu gpu(gtx480());
  const StreamId s = gpu.create_stream();
  BufferHandle b = gpu.alloc(4 * sizeof(std::int32_t));
  std::vector<std::int32_t> host = {1, 2, 3, 4};
  gpu.copy_h2d(b, std::as_bytes(std::span<const std::int32_t>(host)), "h2d", true, s);
  KernelLaunch k = noop_kernel("incr", 4);
  auto view = gpu.memory().view<std::int32_t>(b);
  k.body = [view](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) view[static_cast<std::size_t>(i)] += 10;
  };
  const BufferHandle touched[] = {b};
  k.reads = touched;
  k.writes = touched;
  gpu.launch(k, true, gpu.create_stream());
  std::vector<std::int32_t> out(4);
  gpu.copy_d2h(std::as_writable_bytes(std::span<std::int32_t>(out)), b, "d2h", true, s);
  EXPECT_EQ(out, (std::vector<std::int32_t>{11, 12, 13, 14}));
}

TEST(VirtualGpuStreamTest, HostWorkJoinsTheMakespan) {
  VirtualGpu gpu(gtx480());
  const StreamId host = gpu.create_stream();
  gpu.wait_until(host, 5.0);
  const double end = gpu.run_host("tiler", 20.0, host);
  EXPECT_DOUBLE_EQ(end, 25.0);
  EXPECT_DOUBLE_EQ(gpu.clock_us(), 25.0);
  EXPECT_DOUBLE_EQ(gpu.profiler().total_us(OpKind::Host), 20.0);
}

}  // namespace
}  // namespace saclo::gpu
