#include "gpu/sim_gpu.hpp"

#include <gtest/gtest.h>

#include "gpu/runtime_cuda.hpp"
#include "gpu/runtime_opencl.hpp"

namespace saclo::gpu {
namespace {

TEST(VirtualGpuTest, CopiesMoveDataAndAccrueTime) {
  VirtualGpu gpu(gtx480(), 1);
  const std::vector<std::int64_t> host{1, 2, 3, 4};
  const BufferHandle buf = gpu.alloc(32);
  gpu.copy_h2d(buf, std::as_bytes(std::span(host)), "memcpyHtoDasync", true);
  auto dev = gpu.memory().view<std::int64_t>(buf);
  EXPECT_EQ(dev[3], 4);
  std::vector<std::int64_t> back(4);
  gpu.copy_d2h(std::as_writable_bytes(std::span(back)), buf, "memcpyDtoHasync", true);
  EXPECT_EQ(back, host);
  EXPECT_GT(gpu.clock_us(), 0.0);
  EXPECT_EQ(gpu.profiler().rows().size(), 2u);
}

TEST(VirtualGpuTest, NonExecutingCopyAccruesTimeOnly) {
  VirtualGpu gpu(gtx480(), 1);
  const std::vector<std::int64_t> host{7, 7};
  const BufferHandle buf = gpu.alloc(16);
  gpu.copy_h2d(buf, std::as_bytes(std::span(host)), "memcpyHtoDasync", false);
  auto dev = gpu.memory().view<std::int64_t>(buf);
  EXPECT_EQ(dev[0], 0);  // data untouched
  EXPECT_GT(gpu.clock_us(), 0.0);
}

TEST(VirtualGpuTest, KernelExecutesFunctionally) {
  VirtualGpu gpu(gtx480(), 2);
  const BufferHandle buf = gpu.alloc(1000 * 8);
  auto out = gpu.memory().view<std::int64_t>(buf);
  KernelLaunch k;
  k.name = "square";
  k.threads = 1000;
  k.cost.flops_per_thread = 1;
  k.cost.global_stores_per_thread = 1;
  k.body = [out](std::int64_t begin, std::int64_t end) {
    for (std::int64_t tid = begin; tid < end; ++tid) out[static_cast<std::size_t>(tid)] = tid * tid;
  };
  const double us = gpu.launch(k, true);
  EXPECT_GT(us, 0.0);
  EXPECT_EQ(out[31], 31 * 31);
  EXPECT_EQ(out[999], 999 * 999);
}

TEST(VirtualGpuTest, AccountLaunchMatchesExecutedLaunchTime) {
  VirtualGpu gpu(gtx480(), 1);
  KernelLaunch k;
  k.name = "noop";
  k.threads = 50'000;
  k.cost.flops_per_thread = 10;
  k.cost.global_loads_per_thread = 2;
  k.body = [](std::int64_t, std::int64_t) {};
  const double executed = gpu.launch(k, true);
  const double accounted = gpu.launch(k, false);
  EXPECT_DOUBLE_EQ(executed, accounted);
  EXPECT_EQ(gpu.profiler().rows()[0].calls, 2);
}

TEST(VirtualGpuTest, CopyOverflowThrows) {
  VirtualGpu gpu(gtx480(), 1);
  const std::vector<std::int64_t> host{1, 2, 3, 4};
  const BufferHandle buf = gpu.alloc(16);
  EXPECT_THROW(gpu.copy_h2d(buf, std::as_bytes(std::span(host)), "x", true), DeviceMemoryError);
}

TEST(CudaRuntimeTest, RoundTripsArrays) {
  VirtualGpu gpu(gtx480(), 1);
  cuda::Runtime rt(gpu);
  const IntArray host = IntArray::generate(Shape{4, 4}, [](const Index& i) { return i[0] - i[1]; });
  const BufferHandle dev = gpu.alloc(host.elements() * 4);  // 32-bit device pixels
  rt.host2device_frame(dev, host.data());
  const IntArray back(host.shape(), rt.device2host_frame(dev));
  EXPECT_EQ(back, host);
  EXPECT_GT(gpu.profiler().us_for(cuda::Runtime::kHtoDOp), 0.0);
  EXPECT_GT(gpu.profiler().us_for(cuda::Runtime::kDtoHOp), 0.0);
}

TEST(OpenClRuntimeTest, EnqueuesBuffersAndKernels) {
  VirtualGpu gpu(gtx480(), 1);
  opencl::CommandQueue q(gpu);
  const IntArray host = IntArray::generate(Shape{8}, [](const Index& i) { return 2 * i[0]; });
  const std::int64_t bytes = host.shape().elements() * 4;  // 32-bit device pixels
  const BufferHandle in = gpu.alloc(bytes);
  const BufferHandle out = gpu.alloc(bytes);
  q.enqueue_write_frame(in, host);
  auto in_v = gpu.memory().view<std::int32_t>(in);
  auto out_v = gpu.memory().view<std::int32_t>(out);
  KernelLaunch k;
  k.name = "copy_scale";
  k.threads = 8;
  k.body = [in_v, out_v](std::int64_t begin, std::int64_t end) {
    for (std::int64_t tid = begin; tid < end; ++tid) {
      out_v[static_cast<std::size_t>(tid)] = 3 * in_v[static_cast<std::size_t>(tid)];
    }
  };
  q.enqueue_ndrange(k);
  const IntArray back = q.enqueue_read_frame(out, host.shape());
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(back[i], 6 * i);
}

TEST(VirtualGpuTest, DeviceMemoryCapacityEnforced) {
  DeviceSpec small = gtx480();
  small.global_mem_bytes = 1024;
  VirtualGpu gpu(small, 1);
  (void)gpu.alloc(768);
  EXPECT_THROW(gpu.alloc(300), DeviceMemoryError);
}

}  // namespace
}  // namespace saclo::gpu
