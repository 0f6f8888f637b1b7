// Every caller of allocate_for_overwrite promises to write each element
// of its buffer before reading one. This suite makes a broken promise
// visible: a test allocator fills every such block with 0xA5 bytes, so
// a read before the first write yields a wrong pixel instead of a lucky
// zero. Every route, geometry, backend and issue mode must still
// produce exactly the reference run's output.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "apps/downscaler/pipelines.hpp"
#include "gpu/sim_gpu.hpp"
#include "serve/job.hpp"

namespace saclo::serve {
namespace {

/// Allocates straight from the device's pool; blocks handed out for
/// overwrite come back filled with 0xA5.
class PoisonAllocator final : public gpu::BufferAllocator {
 public:
  explicit PoisonAllocator(gpu::DeviceMemoryPool& pool) : pool_(&pool) {}

  gpu::BufferHandle allocate(std::int64_t bytes) override { return pool_->allocate(bytes); }
  gpu::BufferHandle allocate_for_overwrite(std::int64_t bytes) override {
    const gpu::BufferHandle handle = pool_->allocate_for_overwrite(bytes);
    const auto raw = pool_->bytes(handle);
    if (!raw.empty()) std::memset(raw.data(), 0xA5, raw.size());
    ++poisoned_;
    return handle;
  }
  void free(gpu::BufferHandle handle) override { pool_->free(handle); }

  int poisoned() const { return poisoned_; }

 private:
  gpu::DeviceMemoryPool* pool_;
  int poisoned_ = 0;
};

struct Variant {
  const char* name;
  Route route;
  int opt_level;
};

const Variant kVariants[] = {{"sacng", Route::SacNongeneric, 0},
                             {"sacg", Route::SacGeneric, 0},
                             {"gaspard_o0", Route::Gaspard, 0},
                             {"gaspard_o1", Route::Gaspard, 1},
                             {"gaspard_o2", Route::Gaspard, 2}};

class OverwritePoisonTest
    : public ::testing::TestWithParam<std::tuple<int, bool, gpu::BackendKind, bool>> {};

TEST_P(OverwritePoisonTest, PoisonedOverwriteBlocksNeverReachTheOutput) {
  const auto [variant_index, small, backend, async] = GetParam();
  const Variant& variant = kVariants[variant_index];
  JobSpec spec;
  spec.route = variant.route;
  spec.opt_level = variant.opt_level;
  spec.config = small ? apps::DownscalerConfig::small() : apps::DownscalerConfig::tiny();
  spec.frames = 2;
  const gpu::DeviceSpec device = gpu::gtx480();
  const JobResult reference = reference_run(spec, device);
  ASSERT_GT(reference.last_output.elements(), 0);

  gpu::VirtualGpu gpu(device, 2, backend);
  PoisonAllocator poison(gpu.memory());
  gpu.set_allocator(&poison);
  IntArray output;
  if (variant.route == Route::Gaspard) {
    apps::GaspardDownscaler::Options opts;
    opts.device = device;
    opts.async_streams = async;
    opts.opt_level = variant.opt_level;
    apps::GaspardDownscaler driver(spec.config, opts);
    output = driver.run_on(gpu, spec.frames, spec.frames).last_output;
  } else {
    apps::SacDownscaler::Options opts;
    opts.generic = variant.route == Route::SacGeneric;
    opts.device = device;
    opts.async_streams = async;
    apps::SacDownscaler driver(spec.config, opts);
    output =
        driver.run_cuda_chain_on(gpu, spec.frames, spec.channels, spec.frames).last_output;
  }
  gpu.set_allocator(nullptr);
  EXPECT_GT(poison.poisoned(), 0) << "no buffer went through allocate_for_overwrite";
  EXPECT_EQ(output, reference.last_output);
  EXPECT_EQ(gpu.memory().live_allocations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRoutes, OverwritePoisonTest,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kVariants))),
                       ::testing::Bool(),
                       ::testing::Values(gpu::BackendKind::Sim, gpu::BackendKind::Host),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<OverwritePoisonTest::ParamType>& info) {
      return std::string(kVariants[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) ? "_small_" : "_tiny_") +
             gpu::backend_kind_name(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_async" : "_sync");
    });

}  // namespace
}  // namespace saclo::serve
