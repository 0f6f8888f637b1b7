#include <gtest/gtest.h>

#include "core/fmt.hpp"
#include "gpu/cost_model.hpp"

namespace saclo::gpu {
namespace {

/// Property sweep over the kernel timing model: monotonicity in every
/// input and sane asymptotics, across several device models.
struct CostCase {
  const char* device_name;
  DeviceSpec device;
};

// gtest's default printer dumps the struct's bytes, pointers included, so
// the "GetParam() = ..." value CTest puts into each test name would change
// with the load address on every discovery run. Print the device name.
void PrintTo(const CostCase& c, std::ostream* os) { *os << c.device_name; }

class CostModelProperty : public ::testing::TestWithParam<CostCase> {};

TEST_P(CostModelProperty, MonotonicInThreads) {
  const DeviceSpec& dev = GetParam().device;
  KernelCost c;
  c.flops_per_thread = 20;
  c.global_loads_per_thread = 8;
  c.global_stores_per_thread = 2;
  double prev = 0;
  for (std::int64_t threads : {1'000, 10'000, 100'000, 1'000'000, 10'000'000}) {
    const double t = kernel_time_us(dev, threads, c);
    EXPECT_GE(t, prev) << "threads=" << threads;
    prev = t;
  }
}

TEST_P(CostModelProperty, MonotonicInMemoryTraffic) {
  const DeviceSpec& dev = GetParam().device;
  double prev = 0;
  for (double loads : {1.0, 2.0, 4.0, 8.0, 16.0, 64.0}) {
    KernelCost c;
    c.global_loads_per_thread = loads;
    c.global_stores_per_thread = 1;
    const double t = kernel_time_us(dev, 500'000, c);
    EXPECT_GE(t, prev) << "loads=" << loads;
    prev = t;
  }
}

TEST_P(CostModelProperty, MonotonicInStrideAndClamped) {
  const DeviceSpec& dev = GetParam().device;
  KernelCost c;
  c.global_loads_per_thread = 8;
  c.global_stores_per_thread = 2;
  double prev = 0;
  for (std::int64_t stride : {1, 2, 4, 8, 16, 64, 1024, 1 << 20}) {
    c.warp_access_stride = stride;
    const double t = kernel_time_us(dev, 500'000, c);
    EXPECT_GE(t, prev) << "stride=" << stride;
    prev = t;
  }
  // Clamp: beyond max_stride_penalty nothing changes.
  c.warp_access_stride = 1 << 20;
  const double a = kernel_time_us(dev, 500'000, c);
  c.warp_access_stride = 1 << 21;
  EXPECT_DOUBLE_EQ(a, kernel_time_us(dev, 500'000, c));
}

TEST_P(CostModelProperty, LaunchOverheadIsLowerBound) {
  const DeviceSpec& dev = GetParam().device;
  KernelCost c;
  for (std::int64_t threads : {0, 1, 32, 1000}) {
    EXPECT_GE(kernel_time_us(dev, threads, c), dev.kernel_launch_overhead_us);
  }
}

TEST_P(CostModelProperty, RooflineTakesTheMax) {
  const DeviceSpec& dev = GetParam().device;
  // Compute-only and memory-only kernels; a combined kernel costs the
  // max of the two (plus overhead), never the sum.
  KernelCost compute;
  compute.flops_per_thread = 5000;
  KernelCost memory;
  memory.global_loads_per_thread = 64;
  KernelCost both;
  both.flops_per_thread = 5000;
  both.global_loads_per_thread = 64;
  const std::int64_t n = 1'000'000;
  const double tc = kernel_time_us(dev, n, compute);
  const double tm = kernel_time_us(dev, n, memory);
  const double tb = kernel_time_us(dev, n, both);
  EXPECT_NEAR(tb, std::max(tc, tm), 1e-6);
}

TEST_P(CostModelProperty, TransfersScaleLinearly) {
  const DeviceSpec& dev = GetParam().device;
  for (Dir dir : {Dir::HostToDevice, Dir::DeviceToHost}) {
    const double t1 = transfer_time_us(dev, 1 << 20, dir) - dev.pcie_latency_us;
    const double t4 = transfer_time_us(dev, 4 << 20, dir) - dev.pcie_latency_us;
    EXPECT_NEAR(t4, 4 * t1, t1 * 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, CostModelProperty,
                         ::testing::Values(CostCase{"gtx480", gtx480()},
                                           CostCase{"gtx280", gtx280()},
                                           CostCase{"bigger_fermi", bigger_fermi()}),
                         [](const ::testing::TestParamInfo<CostCase>& info) {
                           return info.param.device_name;
                         });

}  // namespace
}  // namespace saclo::gpu
